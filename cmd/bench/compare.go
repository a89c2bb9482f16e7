package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and bound.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles loads the spec and two -out reports and compares them.
func compareFiles(w io.Writer, specPath, basePath, headPath string) (worse int, err error) {
	var spec benchmarkSpec
	var base, head report
	if err := readJSON(specPath, &spec); err != nil {
		return 0, err
	}
	if err := readJSON(basePath, &base); err != nil {
		return 0, err
	}
	if err := readJSON(headPath, &head); err != nil {
		return 0, err
	}
	return compareReports(w, spec, base, head), nil
}

// compareReports prints one row per workload × end-to-end metric and returns
// how many are worse. With one run a side, a difference inside the metric's
// bound cannot be told from run-to-run spread, so it is `unresolved`; beyond
// the bound it is `better` or `worse` by the metric's direction. A metric or
// workload missing from head, and a head run that failed its output checks,
// count as worse. Under each workload with a worse row, the three layer
// metrics that moved most name where to look.
func compareReports(w io.Writer, spec benchmarkSpec, base, head report) (worse int) {
	for _, wl := range spec.Workloads {
		b, h := base.Workloads[wl.Name], head.Workloads[wl.Name]
		if b == nil {
			continue // nothing to compare against
		}
		if h == nil {
			fmt.Fprintf(w, "%s * missing worse\n", wl.Name)
			worse++
			continue
		}
		worseHere := 0
		if !h.Correct || h.Failed > 0 {
			fmt.Fprintf(w, "%s ops_failed %d %d worse\n", wl.Name, b.Failed, h.Failed)
			worseHere++
		}
		for _, m := range spec.EndToEnd {
			bv, bok := b.Metrics[m.Name]
			hv, hok := h.Metrics[m.Name]
			if !bok {
				continue
			}
			verdict := "unresolved"
			// change > 0 is a worsening, as a share of the base value.
			change := (hv.Value - bv.Value) / math.Abs(bv.Value)
			if m.Better == "higher" {
				change = -change
			}
			switch {
			case !hok || change > m.Bound:
				verdict = "worse"
				worseHere++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%s %s %.6g %.6g %+.1f%% (bound %.0f%%) %s\n",
				wl.Name, m.Name, bv.Value, hv.Value, 100*(hv.Value-bv.Value)/math.Abs(bv.Value), 100*m.Bound, verdict)
		}
		if worseHere > 0 {
			for _, mv := range movedMost(b.Layers, h.Layers, 3) {
				fmt.Fprintf(w, "%s layer %s %.6g %.6g %+.1f%%\n", wl.Name, mv.name, mv.base, mv.head, 100*mv.change)
			}
		}
		worse += worseHere
	}
	return worse
}

type layerMove struct {
	name               string
	base, head, change float64
}

// movedMost returns the n layer metrics with the largest relative change
// between two traced runs, largest first (ties by name).
func movedMost(base, head map[string]metricValue, n int) []layerMove {
	var moves []layerMove
	for name, b := range base {
		h, ok := head[name]
		if !ok || b.Value == 0 {
			continue
		}
		moves = append(moves, layerMove{name, b.Value, h.Value, (h.Value - b.Value) / math.Abs(b.Value)})
	}
	sort.Slice(moves, func(i, j int) bool {
		if a, b := math.Abs(moves[i].change), math.Abs(moves[j].change); a != b {
			return a > b
		}
		return moves[i].name < moves[j].name
	})
	return moves[:min(n, len(moves))]
}
