package cryptomining

import (
	"os/exec"
	"strings"
	"testing"
)

// TestEveryInternalPackageHasABinary fails, naming the package, when a
// package under internal/ is outside the import closure of the binaries
// under cmd/: code no binary runs is not part of the reproduction.
func TestEveryInternalPackageHasABinary(t *testing.T) {
	list := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := map[string]bool{}
	for _, p := range list("-deps", "./cmd/...") {
		reached[p] = true
	}
	internal := list("./internal/...")
	if len(internal) == 0 {
		t.Fatal("go list ./internal/... found no packages")
	}
	for _, p := range internal {
		if !reached[p] {
			t.Errorf("%s is imported by no binary under cmd/: delete it or give it a caller", p)
		}
	}
}
