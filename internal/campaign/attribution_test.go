package campaign

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/extract"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/static"
)

// benchCorpus is one of the two corpora cmd/bench drains, analysed into
// aggregation inputs the way the engine's stages do: static analysis, sandbox
// run, extraction. Every input carries its body.
type benchCorpus struct {
	name   string
	cfg    Config
	inputs []Input
}

func benchCorpora(t *testing.T) []benchCorpus {
	t.Helper()
	analyzer := static.New()
	analyse := func(samples []*model.Sample, resolver *dnssim.Resolver) []Input {
		box := sandbox.New(resolver)
		var inputs []Input
		for _, s := range samples {
			st := analyzer.Analyze(s.Content)
			rec := extract.Extract(extract.Inputs{Sample: s, Static: &st, Dynamic: box.Run(s.SHA256, s.Content)})
			inputs = append(inputs, Input{Record: rec, Content: s.Content})
		}
		return inputs
	}

	// heavy-drain: the materialised universe at scale 0.1, seed 2019.
	ucfg := ecosim.DefaultConfig().Scale(217.0 / 2170)
	ucfg.Seed = 2019
	u := ecosim.Generate(ucfg)
	var heavy []*model.Sample
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			heavy = append(heavy, s)
		}
	}
	// wide-drain: the streamed generator, seed 2019, with its ledger.
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019, Ledger: true})
	wide := make([]*model.Sample, 2000)
	for i := range wide {
		wide[i] = gen.Next().Sample
	}
	heavyInputs := analyse(heavy, dnssim.NewResolver(u.Zone))
	// Neither corpus holds a sample only its body attributes (extraction
	// names the tool on the record, or the hash is catalogued), so add some:
	// lightly patched copies of catalogued tools, dropped by the first sample.
	for i, tool := range u.OSINT.StockTools() {
		if i == 5 || len(tool.Content) == 0 {
			break
		}
		patched := append([]byte(nil), tool.Content...)
		patched[len(patched)/2] ^= 0xff
		heavyInputs = append(heavyInputs, Input{
			Record:  model.Record{SHA256: fmt.Sprintf("%064x", i+1), Type: model.TypeAncillary, Parents: []string{heavyInputs[0].Record.SHA256}},
			Content: patched,
		})
	}
	return []benchCorpus{
		{"heavy", DefaultConfig(u.OSINT, dnssim.NewAliasDetector(u.Zone, u.Pools.DomainMap()), u.Pools.DomainMap()), heavyInputs},
		{"wide", DefaultConfig(osint.NewDefaultStore(), dnssim.NewAliasDetector(gen.Zone(), gen.Pools().DomainMap()), gen.Pools().DomainMap()),
			analyse(wide, dnssim.NewResolver(gen.Zone()))},
	}
}

func stockToolsOf(res *Result) [][]string {
	out := make([][]string, len(res.Campaigns))
	for i, c := range res.Campaigns {
		out[i] = c.StockTools
	}
	return out
}

// TestAddResolvesAttributionOnce: for every sample of both benchmark corpora
// the attribution Add records equals stockToolFor on the body, no body is
// reachable from the aggregator or its exported state afterwards, the
// campaigns carry the StockTools the batch Aggregate computes from the bodies,
// and a state in the form written before the attribution was resolved in Add
// (bodies, no attribution) restores to the same campaigns and drops them too.
func TestAddResolvesAttributionOnce(t *testing.T) {
	attributed, byBodyOnly := 0, 0
	for _, corpus := range benchCorpora(t) {
		if len(corpus.inputs) < 200 {
			t.Fatalf("%s corpus: only %d inputs", corpus.name, len(corpus.inputs))
		}
		ia := NewIncremental(corpus.cfg)
		for _, in := range corpus.inputs {
			want, _ := ia.agg.stockToolFor(&in.Record, nil, in.Content)
			ia.Add(in)
			held := ia.inputs[in.Record.SHA256]
			if held.StockTool != want {
				t.Fatalf("%s corpus: %s attributed to %q in Add, %q from the body", corpus.name, in.Record.SHA256, held.StockTool, want)
			}
			if want != "" {
				attributed++
				if fromRecord, _ := ia.agg.stockToolFor(&in.Record, nil, nil); fromRecord == "" {
					byBodyOnly++
				}
			}
		}
		assertNoBodies(t, corpus.name, ia)
		live := ia.Snapshot()
		batch := New(corpus.cfg).Aggregate(corpus.inputs)
		if !reflect.DeepEqual(stockToolsOf(live), stockToolsOf(batch)) {
			t.Fatalf("%s corpus: incremental StockTools differ from the batch Aggregate's", corpus.name)
		}

		// The same partition as the parent commit's checkpoints hold it.
		st := ia.ExportState()
		for i := range st.Inputs {
			j := slices.IndexFunc(corpus.inputs, func(in Input) bool { return in.Record.SHA256 == st.Inputs[i].Record.SHA256 })
			st.Inputs[i].Content, st.Inputs[i].StockTool = corpus.inputs[j].Content, ""
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		var v1 AggregatorState
		if err := gob.NewDecoder(&buf).Decode(&v1); err != nil {
			t.Fatal(err)
		}
		restored := NewIncremental(corpus.cfg)
		if err := restored.RestoreState(&v1); err != nil {
			t.Fatal(err)
		}
		assertNoBodies(t, corpus.name+" (restored)", restored)
		if !reflect.DeepEqual(stockToolsOf(restored.Snapshot()), stockToolsOf(live)) {
			t.Fatalf("%s corpus: a state with bodies and no attribution restores to different StockTools", corpus.name)
		}
		if !reflect.DeepEqual(restored.ExportState(), ia.ExportState()) {
			t.Fatalf("%s corpus: the restored aggregator exports a different state", corpus.name)
		}
	}
	if attributed == 0 || byBodyOnly == 0 {
		t.Fatalf("%d samples attributed to a stock tool, %d of them by the body alone; the comparison is vacuous", attributed, byBodyOnly)
	}
}

func assertNoBodies(t *testing.T, name string, ia *IncrementalAggregator) {
	t.Helper()
	for sha, in := range ia.inputs {
		if in.Content != nil {
			t.Fatalf("%s: the aggregator still holds the body of %s", name, sha)
		}
	}
	for _, in := range ia.ExportState().Inputs {
		if in.Content != nil {
			t.Fatalf("%s: the exported state holds the body of %s", name, in.Record.SHA256)
		}
	}
}

// TestRefreshReportsTheDirtyComponents drives Refresh with random inputs and
// checks, after every call, its report against the keys the previous call left:
// changed holds exactly the components that are new or were rebuilt, gone
// exactly the reported components that were merged away, the rebuild counter
// advances by the number of rebuilt components, and Components lists the
// partition in the order — and with the campaigns — Snapshot numbers it.
func TestRefreshReportsTheDirtyComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	inputs := synthInputs(600, rng)
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	ia := NewIncremental(DefaultConfig(osint.NewDefaultStore(), nil, nil))

	known := map[*Component]*model.Campaign{} // as of the previous Refresh
	merges := 0
	for len(inputs) > 0 {
		n := min(1+rng.Intn(5), len(inputs))
		for _, in := range inputs[:n] {
			ia.Add(in)
		}
		inputs = inputs[n:]

		before := ia.Rebuilds()
		changed, gone := ia.Refresh()
		if got := ia.Rebuilds() - before; got != len(changed) {
			t.Fatalf("%d components rebuilt, %d reported changed", got, len(changed))
		}
		for _, c := range gone {
			if _, ok := known[c]; !ok {
				t.Fatalf("component %q reported gone was never reported", c.Key())
			}
			delete(known, c)
			merges++
		}
		for _, c := range changed {
			if c.Campaign == nil || c.Campaign == known[c] {
				t.Fatalf("component %q reported changed without a new campaign", c.Key())
			}
			known[c] = c.Campaign
		}
		comps := ia.Components()
		if len(comps) != len(known) || len(comps) != ia.Len() {
			t.Fatalf("%d components listed, %d known, %d live", len(comps), len(known), ia.Len())
		}
		for i, c := range comps {
			if known[c] != c.Campaign {
				t.Fatalf("component %q changed its campaign without being reported", c.Key())
			}
			if i > 0 && comps[i-1].Key() >= c.Key() {
				t.Fatalf("components out of order at %d: %q, %q", i, comps[i-1].Key(), c.Key())
			}
		}
		if rng.Intn(4) == 0 {
			rebuilds := ia.Rebuilds()
			snap := ia.Snapshot()
			if ia.Rebuilds() != rebuilds {
				t.Fatal("Snapshot right after Refresh rebuilt a component")
			}
			for i, c := range snap.Campaigns {
				if c != comps[i].Campaign || c.ID != i+1 {
					t.Fatalf("Snapshot campaign %d (ID %d) is not component %d's", i, c.ID, i)
				}
			}
		}
	}
	if merges == 0 {
		t.Fatal("no reported component was ever merged away; the test covers no merge")
	}
	if changed, gone := ia.Refresh(); len(changed) != 0 || len(gone) != 0 {
		t.Fatalf("Refresh with nothing added reported %d changed, %d gone", len(changed), len(gone))
	}
}
