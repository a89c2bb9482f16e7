package lockorder_test

import (
	"testing"

	"cryptomining/tools/analyzers/analysistest"
	"cryptomining/tools/analyzers/passes/lockorder"
)

// TestReadPath covers rules 1 and 2 on a stand-in for the engine package
// that also registers its own GET handlers.
func TestReadPath(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "internal/stream")
}
