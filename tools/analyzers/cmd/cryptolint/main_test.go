package main

import (
	"sort"
	"testing"
)

// golden is the full -list roster: adding, removing or renaming a pass must
// show up here, which is what lets the CI self-test assert the suite it
// believes it is running is the suite actually registered.
const golden = `directclock      forbid direct time.Now/Since/NewTimer/... in packages that expose a Clock seam
guardedby        annotated struct fields may only be accessed with their declared mutex held on every path
lockorder        forbid engine-mutex acquisition on GET read paths
wirecompat       wire-package fields recorded in the schema lock may never be removed, renamed or retyped
`

func TestListGolden(t *testing.T) {
	if got := listString(); got != golden {
		t.Errorf("-list output drifted from the golden roster:\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

func TestRosterSorted(t *testing.T) {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("analyzer roster is not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate analyzer name %q", n)
		}
		seen[n] = true
	}
}
