package wirecompat_test

import (
	"os"
	"path/filepath"
	"testing"

	"cryptomining/tools/analyzers/analysis"
	"cryptomining/tools/analyzers/analysistest"
	"cryptomining/tools/analyzers/load"
	"cryptomining/tools/analyzers/passes/wirecompat"
)

func TestWireCompat(t *testing.T) {
	analysistest.Run(t, "testdata", wirecompat.Analyzer, "pkg/apiv1", "missing/pkg/apiv1")
}

// TestWriteRegeneratesLock proves -write produces a lock the checking mode
// accepts verbatim: copy the fixture sources into a temp tree, regenerate
// the lock there, then re-run the pass against it and require zero findings.
func TestWriteRegeneratesLock(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	dir := filepath.Join(src, "pkg", "apiv1")
	wire, err := os.ReadFile(filepath.Join("testdata", "src", "pkg", "apiv1", "wire.go"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wire.go"), wire, 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, errs := load.Dir(src, "pkg/apiv1")
	if len(errs) > 0 {
		t.Fatalf("load: %v", errs)
	}
	setWrite := func(v string) {
		if err := wirecompat.Analyzer.Flags.Set("write", v); err != nil {
			t.Fatal(err)
		}
	}
	setWrite("true")
	t.Cleanup(func() { setWrite("false") })

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  wirecompat.Analyzer,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.TypesInfo,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := wirecompat.Analyzer.Run(pass); err != nil {
		t.Fatalf("write run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("write mode reported findings: %v", diags)
	}
	data, err := os.ReadFile(filepath.Join(dir, "apiv1.lock.json"))
	if err != nil {
		t.Fatalf("lock not written: %v", err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("lock file malformed: %q", data)
	}

	setWrite("false")
	if _, err := wirecompat.Analyzer.Run(pass); err != nil {
		t.Fatalf("check run: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("freshly written lock still yields findings: %v", diags)
	}
}
