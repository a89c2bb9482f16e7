package campaign

import (
	"errors"
	"sort"

	"cryptomining/internal/graph"
	"cryptomining/internal/model"
)

// AggregatorState is a self-contained snapshot of an IncrementalAggregator's
// partition, shaped for serialization: every map is flattened into a sorted
// slice (and every slice keeps its live ordering), so the same partition
// always serializes to the same bytes regardless of map iteration order.
// Cached campaigns are deliberately not captured — they are derived data, and
// the first Snapshot after a restore rebuilds them deterministically.
//
// An in-process copy (ExportState handed straight to RestoreState, as a
// what-if shadow is built) also carries each input's resolved enrichment, an
// unexported immutable pointer that serialization drops: the restore reuses
// it instead of deriving it again. A decoded state is enriched afresh.
type AggregatorState struct {
	// Inputs are the accumulated aggregation inputs, sorted by sample hash.
	// They carry the resolved stock-tool attribution and no body. A state
	// written before the attribution was resolved in Add has the body and no
	// attribution instead; RestoreState resolves and drops it.
	Inputs []Input
	// Nodes lists every graph node (isolated ones included), sorted.
	Nodes []graph.NodeID
	// Edges lists the graph edges in insertion order.
	Edges []graph.Edge
	// Relations is the union-find table, sorted by child node.
	Relations []NodeRelation
	// Components describes each live component, sorted by root node.
	Components []ComponentState
	// AVLabels carries the per-sample AV labels fed via SetAVLabels, sorted
	// by sample hash.
	AVLabels []SampleLabels
	// SkippedDonations and Rebuilds restore the aggregator's counters.
	SkippedDonations int
	Rebuilds         int
}

// NodeRelation is one union-find table entry: Node's parent pointer and rank.
type NodeRelation struct {
	Node   graph.NodeID
	Parent graph.NodeID
	Rank   int
}

// ComponentState captures one live component.
type ComponentState struct {
	Root    graph.NodeID
	MinNode graph.NodeID
	// ByKind holds the component's node values per kind, kinds sorted,
	// values in live (accumulation) order.
	ByKind []KindValues
}

// KindValues pairs a node kind with its accumulated values.
type KindValues struct {
	Kind   model.NodeKind
	Values []string
}

// SampleLabels pairs a sample hash with its AV labels.
type SampleLabels struct {
	SHA256 string
	Labels []string
}

// ExportState snapshots the aggregator's full partition. The returned state
// is detached from the aggregator's mutable structures: inputs are copied by
// value and component value slices are copied, so the state stays valid (and
// serializes consistently) even if the aggregator keeps absorbing inputs.
// Only immutable payloads (record slices, which the aggregator never rewrites
// in place) remain shared.
func (ia *IncrementalAggregator) ExportState() *AggregatorState {
	st := &AggregatorState{
		SkippedDonations: ia.skippedDonations,
		Rebuilds:         ia.rebuilds,
	}

	shas := make([]string, 0, len(ia.inputs))
	for sha := range ia.inputs {
		shas = append(shas, sha)
	}
	sort.Strings(shas)
	for _, sha := range shas {
		st.Inputs = append(st.Inputs, *ia.inputs[sha])
	}

	st.Nodes = ia.graph.Nodes()
	st.Edges = ia.graph.Edges()

	parent, rank := ia.sets.Export()
	children := make([]graph.NodeID, 0, len(parent))
	for n := range parent {
		children = append(children, n)
	}
	sort.Slice(children, func(i, j int) bool { return nodeLess(children[i], children[j]) })
	for _, n := range children {
		st.Relations = append(st.Relations, NodeRelation{Node: n, Parent: parent[n], Rank: rank[n]})
	}

	roots := make([]graph.NodeID, 0, len(ia.comps))
	for r := range ia.comps {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return nodeLess(roots[i], roots[j]) })
	for _, r := range roots {
		c := ia.comps[r]
		cs := ComponentState{Root: r, MinNode: c.minNode}
		kinds := make([]model.NodeKind, 0, len(c.byKind))
		for k := range c.byKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			// Copied, not aliased: union() keeps appending to these slices,
			// and the exported state may be serialized concurrently with
			// further aggregation (the engine checkpoints without stalling
			// ingestion).
			cs.ByKind = append(cs.ByKind, KindValues{Kind: k, Values: append([]string(nil), c.byKind[k]...)})
		}
		st.Components = append(st.Components, cs)
	}

	labelSHAs := make([]string, 0, len(ia.agg.cfg.AVLabels))
	for sha := range ia.agg.cfg.AVLabels {
		labelSHAs = append(labelSHAs, sha)
	}
	sort.Strings(labelSHAs)
	for _, sha := range labelSHAs {
		st.AVLabels = append(st.AVLabels, SampleLabels{SHA256: sha, Labels: ia.agg.cfg.AVLabels[sha]})
	}
	return st
}

// RestoreState loads a previously exported partition into the aggregator.
// The receiver must be freshly created (NewIncremental) with the same
// configuration that produced the state — or one that resolves the same
// enrichment, such as a shadow's with a forked pool directory of the same
// names and domains; restoring into an aggregator that already holds inputs
// is an error. Inputs that arrive with their enrichment resolved (an
// in-process ExportState) keep it; the others are enriched here.
func (ia *IncrementalAggregator) RestoreState(st *AggregatorState) error {
	if len(ia.inputs) != 0 || len(ia.comps) != 0 {
		return errors.New("campaign: restore into a non-empty aggregator")
	}
	// Labels first: resolving an input reads them.
	for _, sl := range st.AVLabels {
		ia.SetAVLabels(sl.SHA256, sl.Labels)
	}
	for _, in := range st.Inputs {
		if in.resolved != nil {
			// An in-process ExportState copy keeps its enrichment: it is a
			// pure function of the input, its labels and the configuration,
			// which the receiver shares.
			ia.inputs[in.Record.SHA256] = &in
			continue
		}
		// A decoded input has its enrichment derived again; one written
		// with its body instead of the attribution has the attribution
		// resolved here, from the body, which is then dropped.
		ia.inputs[in.Record.SHA256] = ia.resolved(in)
	}
	for _, n := range st.Nodes {
		ia.graph.AddNode(n)
	}
	for _, e := range st.Edges {
		ia.graph.AddEdge(e.A, e.B, e.Kind)
	}
	parent := make(map[graph.NodeID]graph.NodeID, len(st.Relations))
	rank := make(map[graph.NodeID]int, len(st.Relations))
	for _, r := range st.Relations {
		parent[r.Node] = r.Parent
		rank[r.Node] = r.Rank
	}
	ia.sets = graph.RestoreDisjointSet(parent, rank)
	for _, cs := range st.Components {
		lc := &Component{
			byKind:  make(map[model.NodeKind][]string, len(cs.ByKind)),
			minNode: cs.MinNode,
		}
		for _, kv := range cs.ByKind {
			lc.byKind[kv.Kind] = append([]string(nil), kv.Values...)
		}
		ia.comps[cs.Root] = lc
		ia.invalidate(lc)
	}
	ia.skippedDonations = st.SkippedDonations
	// Warm the derived campaign caches. The first read after a restore
	// would rebuild every component anyway; doing it here keeps that cost
	// inside the restore and off the first read. The warm-up is restoration
	// work, not new aggregation, so it must not disturb the Rebuilds counter:
	// reset it to the exported value afterwards so a restored partition
	// re-exports byte-identically.
	ia.Snapshot()
	ia.rebuilds = st.Rebuilds
	return nil
}
