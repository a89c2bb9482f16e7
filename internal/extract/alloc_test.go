package extract

import (
	"testing"

	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
)

// extractAllocs bounds the allocations of one Extract over the fixed sample:
// the first body of ecosim's streamed corpus (seed 7) that the sandbox runs
// with a command line and whose record comes out a miner. Measured on go1.24:
// 52 (53 under -race) — the candidate and endpoint scans over the sandbox's
// command lines, the Stratum parse of its network capture, and the record's
// slices.
const extractAllocs = 54

func TestExtractAllocBudget(t *testing.T) {
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 7})
	analyzer, box := static.New(), sandbox.New(dnssim.NewResolver(gen.Zone()))
	var in Inputs
	for i := 0; i < 100 && in.Sample == nil; i++ {
		s := gen.Next().Sample
		st := analyzer.Analyze(s.Content)
		cand := Inputs{Sample: s, Static: &st, Dynamic: box.Run(s.SHA256, s.Content), AVReport: gen.AVProvider().Report(s.SHA256)}
		if rec := Extract(cand); rec.Type == model.TypeMiner && len(cand.Dynamic.CommandLines()) > 0 {
			in = cand
		}
	}
	if in.Sample == nil {
		t.Fatal("no streamed miner with a sandbox command line in the first 100")
	}
	allocs := testing.AllocsPerRun(100, func() { Extract(in) })
	if allocs > extractAllocs {
		t.Errorf("Extract allocates %v times, budget %d", allocs, extractAllocs)
	}
	t.Logf("Extract: %v allocations", allocs)
}
