// Package cryptomining's benchmark harness regenerates every table and figure
// of the paper's evaluation section (core.Artefacts; see DESIGN.md for the
// per-experiment index) and runs the ablations.
//
// Each benchmark prints its table/series once (so that `go test -bench=.`
// leaves a textual artefact of the regenerated result) and then measures the
// cost of rebuilding the dataset from the pipeline results. The pipeline
// itself runs once per benchmark binary over a deterministic synthetic
// ecosystem; the end-to-end and ablation benchmarks rebuild it.
package cryptomining

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cryptomining/internal/campaign"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
)

var (
	fixtureOnce     sync.Once
	fixtureUniverse *ecosim.Universe
	fixtureResults  *core.Results
	printOnce       sync.Map
)

// fixture generates the shared ecosystem and runs the pipeline once.
func fixture(b *testing.B) (*ecosim.Universe, *core.Results) {
	b.Helper()
	fixtureOnce.Do(func() {
		cfg := ecosim.DefaultConfig().Scale(0.25)
		fixtureUniverse = ecosim.Generate(cfg)
		res, err := core.NewFromUniverse(fixtureUniverse).Run()
		if err != nil {
			panic(err)
		}
		fixtureResults = res
	})
	return fixtureUniverse, fixtureResults
}

// printResult emits the regenerated artefact once per benchmark name.
func printResult(b *testing.B, content string) {
	b.Helper()
	if _, loaded := printOnce.LoadOrStore(b.Name(), true); loaded {
		return
	}
	fmt.Printf("\n===== %s =====\n%s\n", b.Name(), content)
}

// BenchmarkArtefacts regenerates every table and figure of the evaluation:
// one sub-benchmark per entry of core.Artefacts, the list cmd/paperrepro
// writes and internal/core's TestArtefactsGolden pins byte for byte.
func BenchmarkArtefacts(b *testing.B) {
	u, res := fixture(b)
	for _, a := range core.Artefacts(u, res) {
		b.Run(a.Name, func(b *testing.B) {
			var out string
			for i := 0; i < b.N; i++ {
				out = a.Render()
			}
			b.StopTimer()
			printResult(b, out)
		})
	}
}

// BenchmarkPipelineEndToEnd measures the full pipeline (sanity checks, both
// analyses, extraction, aggregation, profit analysis) over a small ecosystem.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	cfg := ecosim.SmallConfig().Scale(0.5)
	u := ecosim.Generate(cfg)
	b.ResetTimer()
	var res *core.Results
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.NewFromUniverse(u).Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printResult(b, fmt.Sprintf("samples analyzed: %d, miners: %d, campaigns: %d, total %s XMR\n",
		len(res.Outcomes), len(res.MinerRecords), len(res.Campaigns), model.FormatXMR(res.TotalXMR)))
}

// BenchmarkAblationGroupingFeatures compares the aggregation with only the
// same-identifier feature against the full feature set (DESIGN.md ablation).
func BenchmarkAblationGroupingFeatures(b *testing.B) {
	u, full := fixture(b)
	idOnly := campaign.Features{SameIdentifier: true}
	var res *core.Results
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.New(core.Config{
			Corpus:      u.Corpus,
			AV:          core.NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
			Zone:        u.Zone,
			OSINT:       u.OSINT,
			Pools:       u.Pools,
			Network:     u.Network,
			QueryTime:   u.Config.QueryTime,
			GroundTruth: u.GroundTruthBySample,
			Features:    &idOnly,
		})
		var err error
		res, err = p.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printResult(b, fmt.Sprintf("identifier-only aggregation: %d campaigns (purity %.1f%%); full features: %d campaigns (purity %.1f%%)\n",
		len(res.Campaigns), core.Validate(res.Campaigns).Purity()*100,
		len(full.Campaigns), core.Validate(full.Campaigns).Purity()*100))
}

// BenchmarkAblationFuzzyThreshold sweeps the fuzzy-hash distance threshold
// used for stock-tool attribution (paper: 0.1).
func BenchmarkAblationFuzzyThreshold(b *testing.B) {
	u, _ := fixture(b)
	thresholds := []float64{0.05, 0.1, 0.3}
	results := map[float64]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range thresholds {
			p := core.New(core.Config{
				Corpus:         u.Corpus,
				AV:             core.NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
				Zone:           u.Zone,
				OSINT:          u.OSINT,
				Pools:          u.Pools,
				Network:        u.Network,
				QueryTime:      u.Config.QueryTime,
				FuzzyThreshold: th,
			})
			res, err := p.Run()
			if err != nil {
				b.Fatal(err)
			}
			count := 0
			for _, c := range res.Campaigns {
				if len(c.StockTools) > 0 {
					count++
				}
			}
			results[th] = count
		}
	}
	b.StopTimer()
	var sb strings.Builder
	for _, th := range thresholds {
		fmt.Fprintf(&sb, "threshold %.2f: %d campaigns attributed to stock tools\n", th, results[th])
	}
	printResult(b, sb.String())
}

// BenchmarkAblationAVThreshold sweeps the AV-positives threshold of the
// malware sanity check (paper: 10; discussion in §VI considers 5).
func BenchmarkAblationAVThreshold(b *testing.B) {
	u, _ := fixture(b)
	thresholds := []int{5, 10, 20}
	type outcome struct{ kept, miners int }
	results := map[int]outcome{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range thresholds {
			p := core.New(core.Config{
				Corpus:           u.Corpus,
				AV:               core.NewScannerAV(u.Scanner, u.SampleTruths, u.Config.QueryTime),
				Zone:             u.Zone,
				OSINT:            u.OSINT,
				Pools:            u.Pools,
				Network:          u.Network,
				QueryTime:        u.Config.QueryTime,
				MalwareThreshold: th,
			})
			res, err := p.Run()
			if err != nil {
				b.Fatal(err)
			}
			results[th] = outcome{kept: len(res.Records), miners: len(res.MinerRecords)}
		}
	}
	b.StopTimer()
	var sb strings.Builder
	for _, th := range thresholds {
		fmt.Fprintf(&sb, "AV threshold %2d: %d samples kept, %d miners\n", th, results[th].kept, results[th].miners)
	}
	printResult(b, sb.String())
}
