package static

import (
	"testing"

	"cryptomining/internal/ecosim"
)

// analyzeAllocs bounds the allocations of one Analyze over the fixed sample:
// the first body of ecosim's streamed corpus (seed 7) that yields both an
// identifier and a pool endpoint. Measured on go1.24: 6 (7 under -race) — per
// kind of finding the result slice and the copies it holds. The body's
// strings are joined into a pooled buffer and no digest is taken, so neither
// allocates.
const analyzeAllocs = 8

func TestAnalyzeAllocBudget(t *testing.T) {
	a := New()
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 7})
	var content []byte
	for i := 0; i < 100 && content == nil; i++ {
		s := gen.Next().Sample
		if r := a.Analyze(s.Content); len(r.Identifiers) > 0 && len(r.PoolEndpoints) > 0 {
			content = s.Content
		}
	}
	if content == nil {
		t.Fatal("no streamed sample with an identifier and an endpoint in the first 100")
	}
	allocs := testing.AllocsPerRun(100, func() { a.Analyze(content) })
	if allocs > analyzeAllocs {
		t.Errorf("Analyze allocates %v times over a %d-byte body, budget %d", allocs, len(content), analyzeAllocs)
	}
	t.Logf("Analyze: %v allocations over a %d-byte body", allocs, len(content))
}
