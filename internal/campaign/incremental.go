package campaign

import (
	"slices"

	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/graph"
	"cryptomining/internal/model"
)

// IncrementalAggregator maintains the campaign partition under a stream of
// inputs: each Add unions the sample's grouping-feature nodes into the live
// component structure, so campaigns are updated as samples land instead of
// re-aggregating the whole corpus. Components only ever grow or merge (the
// grouping graph is append-only), which is what makes the incremental view
// exact: after the same set of inputs, Snapshot returns the same campaigns —
// including the same deterministic IDs — as Aggregator.Aggregate.
//
// It is not safe for concurrent use; the streaming engine confines it to a
// single collector goroutine.
type IncrementalAggregator struct {
	agg   *Aggregator
	graph *graph.Graph
	sets  *graph.DisjointSet[graph.NodeID]
	comps map[graph.NodeID]*Component
	// inputs holds every input by sample hash, attribution resolved and body
	// dropped (see Add).
	inputs map[string]*Input

	// order lists the placed components by minNode: order[i] is campaign i+1.
	// A component is placed by the first Refresh or Snapshot after it was
	// created, so the singletons an Add creates and merges away at once never
	// enter it; union takes a placed component out the moment it is absorbed
	// or its minNode changes.
	order []*Component
	// dirty lists the components created or invalidated since the last
	// Refresh (each once, see Component.listed); gone the reported components
	// absorbed since then.
	dirty, gone []*Component

	skippedDonations int
	rebuilds         int

	// onMerge, when set, observes component merges by stable key (see
	// SetMergeHook).
	onMerge func(winner, loser string)
}

// Component is one connected component of the campaign graph, maintained
// incrementally: the handle the live read path (Refresh, Components) works
// with.
type Component struct {
	byKind  map[model.NodeKind][]string
	minNode graph.NodeID

	// Campaign is the last built campaign, nil while the component is dirty.
	// A rebuild replaces it, never rewrites it. Its ID is stamped by Snapshot
	// only: on the live path a campaign's ID is its position in Components.
	Campaign *model.Campaign
	// Attachment belongs to the caller: data derived from the component that
	// should live exactly as long as it does. The aggregator never reads it.
	Attachment any

	placed   bool // in order
	listed   bool // in dirty
	reported bool // returned by a Refresh, so its absorption is reported too
	absorbed bool // merged into another component
}

// Key returns the component's stable key (see SetMergeHook).
func (c *Component) Key() string { return nodeKey(c.minNode) }

// NewIncremental creates an incremental aggregator with the same
// configuration semantics as New.
func NewIncremental(cfg Config) *IncrementalAggregator {
	return &IncrementalAggregator{
		agg:    New(cfg),
		graph:  graph.New(),
		sets:   graph.NewDisjointSet[graph.NodeID](),
		comps:  map[graph.NodeID]*Component{},
		inputs: map[string]*Input{},
	}
}

// SetAVLabels records AV labels for a sample (PPI-botnet enrichment). Call it
// before Add-ing the sample: Add resolves the enrichment from them, once.
func (ia *IncrementalAggregator) SetAVLabels(sha string, labels []string) {
	if len(labels) == 0 {
		return
	}
	if ia.agg.cfg.AVLabels == nil {
		ia.agg.cfg.AVLabels = map[string][]string{}
	}
	ia.agg.cfg.AVLabels[sha] = labels
}

func nodeLess(a, b graph.NodeID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Value < b.Value
}

// nodeKey encodes a node as a component-key string. Node kinds are fixed
// words without NULs, so the separator keeps keys collision-free; the
// encoding sorts exactly like nodeLess, and the key of a component is the
// encoding of its minimum node.
func nodeKey(n graph.NodeID) string { return string(n.Kind) + "\x00" + n.Value }

// SetMergeHook registers a callback observing component merges: whenever two
// live components merge, it receives the surviving component's key (its new
// minimum node) and the key that disappeared. Keys are deterministic across
// runs and across state export/restore, which lets external per-campaign
// state (e.g. timeseries timelines) follow the partition exactly. The hook
// runs synchronously inside Add.
func (ia *IncrementalAggregator) SetMergeHook(fn func(winner, loser string)) { ia.onMerge = fn }

// ComponentKey returns the stable key of the component containing the sample
// hash (under either node kind a sample can appear as), or false when the
// hash is not in the partition.
func (ia *IncrementalAggregator) ComponentKey(sha string) (string, bool) {
	for _, kind := range []model.NodeKind{model.NodeSample, model.NodeAncillary} {
		n := graph.NodeID{Kind: kind, Value: sha}
		if ia.graph.HasNode(n) {
			return nodeKey(ia.comps[ia.find(n)].minNode), true
		}
	}
	return "", false
}

// WalletComponent returns the component containing the wallet identifier, or
// nil when the wallet is not a grouping node (e.g. donation wallets, or wallet
// grouping disabled).
func (ia *IncrementalAggregator) WalletComponent(wallet string) *Component {
	n := graph.NodeID{Kind: model.NodeWallet, Value: wallet}
	if !ia.graph.HasNode(n) {
		return nil
	}
	return ia.comps[ia.find(n)]
}

// WalletComponentKey returns the stable key of WalletComponent(wallet), or
// false when there is none.
func (ia *IncrementalAggregator) WalletComponentKey(wallet string) (string, bool) {
	c := ia.WalletComponent(wallet)
	if c == nil {
		return "", false
	}
	return c.Key(), true
}

// find returns the root of x's component, creating a singleton component for
// unseen nodes.
func (ia *IncrementalAggregator) find(x graph.NodeID) graph.NodeID {
	root := ia.sets.Find(x)
	if _, ok := ia.comps[root]; !ok {
		c := &Component{
			byKind:  map[model.NodeKind][]string{x.Kind: {x.Value}},
			minNode: x,
		}
		ia.comps[root] = c
		ia.invalidate(c)
	}
	return root
}

// invalidate marks the component's campaign stale and queues it for the next
// Refresh.
func (ia *IncrementalAggregator) invalidate(c *Component) {
	c.Campaign = nil
	if !c.listed {
		c.listed = true
		ia.dirty = append(ia.dirty, c)
	}
}

func compareMinNode(c *Component, n graph.NodeID) int {
	switch {
	case nodeLess(c.minNode, n):
		return -1
	case nodeLess(n, c.minNode):
		return 1
	}
	return 0
}

// unplace takes a placed component out of the order; it must be called
// before the component's minNode changes.
func (ia *IncrementalAggregator) unplace(c *Component) {
	if !c.placed {
		return
	}
	i, _ := slices.BinarySearchFunc(ia.order, c.minNode, compareMinNode)
	ia.order = slices.Delete(ia.order, i, i+1)
	c.placed = false
}

// place files every component created (or unplaced) since the last call
// under its minNode.
func (ia *IncrementalAggregator) place() {
	sortAll := len(ia.order) == 0
	for _, c := range ia.dirty {
		if c.absorbed || c.placed {
			continue
		}
		c.placed = true
		if sortAll {
			// Nothing placed yet (first read, restore): everything is new, so
			// sort once instead of inserting one at a time.
			ia.order = append(ia.order, c)
			continue
		}
		i, _ := slices.BinarySearchFunc(ia.order, c.minNode, compareMinNode)
		ia.order = slices.Insert(ia.order, i, c)
	}
	if sortAll {
		slices.SortFunc(ia.order, func(a, b *Component) int { return compareMinNode(a, b.minNode) })
	}
}

// union merges the components of a and b and returns the surviving root.
func (ia *IncrementalAggregator) union(a, b graph.NodeID) graph.NodeID {
	ia.find(a)
	ia.find(b)
	root, absorbed, merged := ia.sets.Union(a, b)
	if !merged {
		return root
	}
	ca, cb := ia.comps[root], ia.comps[absorbed]
	for kind, values := range cb.byKind {
		ca.byKind[kind] = append(ca.byKind[kind], values...)
	}
	ia.unplace(cb)
	cb.absorbed = true
	if cb.reported {
		ia.gone = append(ia.gone, cb)
	}
	winner, loser := ca.minNode, cb.minNode
	if nodeLess(cb.minNode, ca.minNode) {
		winner, loser = cb.minNode, ca.minNode
		ia.unplace(ca)
		ca.minNode = cb.minNode
	}
	ia.invalidate(ca)
	delete(ia.comps, absorbed)
	if ia.onMerge != nil {
		ia.onMerge(nodeKey(winner), nodeKey(loser))
	}
	return root
}

// Add feeds one input into the live partition. Inputs arriving for a hash
// already seen (e.g. first known only as somebody's dropped hash) refresh the
// component's record view.
//
// The input's enrichment is resolved here, once (see Aggregator.enrich), and
// neither the body nor its signature is kept: the stock-tool attribution is
// the only thing read from them. An input that carries a Signature is not
// hashed here.
func (ia *IncrementalAggregator) Add(in Input) {
	rec := &in.Record
	if rec.SHA256 == "" {
		return
	}
	ia.inputs[rec.SHA256] = ia.resolved(in)

	sampleNode, links, donationSkipped := ia.agg.DeriveLinks(rec)
	if donationSkipped {
		ia.skippedDonations++
	}
	ia.graph.AddNode(sampleNode)
	ia.find(sampleNode)
	for _, l := range links {
		ia.graph.AddEdge(sampleNode, l.Node, l.Kind)
		ia.union(sampleNode, l.Node)
	}
	// Invalidate every component that references this hash, under either node
	// kind: a sample first known as somebody's dropped/parent hash lives in a
	// component as an (ancillary, hash) node, and that component's cached
	// campaign went stale the moment the record arrived.
	for _, kind := range []model.NodeKind{model.NodeSample, model.NodeAncillary} {
		n := graph.NodeID{Kind: kind, Value: rec.SHA256}
		if ia.graph.HasNode(n) {
			ia.invalidate(ia.comps[ia.find(n)])
		}
	}
}

// resolved returns the aggregator's own copy of an input: enrichment
// resolved, attribution recorded, body and signature dropped. AV labels for
// the sample must have been set before.
func (ia *IncrementalAggregator) resolved(in Input) *Input {
	en := ia.agg.enrich(&in)
	in.resolved, in.StockTool, in.Content, in.Signature = &en, en.stockTool, nil, nil
	return &in
}

// Signature returns the fuzzy hash Add compares a record's body by, for the
// caller to pass as Input.Signature in place of the body; nil when Add
// compares none (no catalogue signature, an empty body, or an exact-hash
// attribution). It reads only the catalogue as loaded at NewIncremental, so it
// may run concurrently with Add: the streaming engine calls it from its shard
// stages.
func (ia *IncrementalAggregator) Signature(rec *model.Record, content []byte) *fuzzyhash.Signature {
	return ia.agg.signature(rec, content)
}

// Len returns the current number of live components (campaigns).
func (ia *IncrementalAggregator) Len() int { return len(ia.comps) }

// Rebuilds returns how many component->campaign rebuilds Refresh and Snapshot
// performed so far — the work actually done, versus re-aggregating the world
// each time. Only tests read it, to bound the view's rebuild cost.
func (ia *IncrementalAggregator) Rebuilds() int { return ia.rebuilds }

func (ia *IncrementalAggregator) rebuild(c *Component, id int) {
	c.Campaign = ia.agg.buildCampaign(id, &graph.Component{ByKind: c.byKind}, ia.inputs)
	ia.rebuilds++
}

// Refresh is the live read: it rebuilds the components dirtied since the
// previous Refresh and reports what happened to the partition in between —
// changed lists every component that was created or whose campaign was
// rebuilt (by this call or by a Snapshot since), gone every previously
// reported component that was merged into another. Its cost is that of the
// dirty components alone; nothing is done per clean component or per sample.
// Both slices are only valid until the next Add.
func (ia *IncrementalAggregator) Refresh() (changed, gone []*Component) {
	ia.place()
	changed = ia.dirty[:0]
	for _, c := range ia.dirty {
		c.listed = false
		if c.absorbed {
			continue
		}
		if c.Campaign == nil {
			ia.rebuild(c, 0)
		}
		c.reported = true
		changed = append(changed, c)
	}
	clear(ia.dirty[len(changed):])
	gone = ia.gone
	ia.dirty, ia.gone = ia.dirty[:0], ia.gone[:0]
	return changed, gone
}

// Components returns the live components in campaign-ID order: element i is
// campaign i+1. It covers the components placed by the last Refresh or
// Snapshot and is only valid until the next Add.
func (ia *IncrementalAggregator) Components() []*Component { return ia.order }

// Snapshot materializes the current partition as an aggregation Result, with
// the campaign IDs stamped and the by-wallet and by-sample lookups built. Only
// components touched since the previous read are rebuilt; clean components
// reuse their cached campaign (IDs are refreshed, since insertion of an
// earlier-sorting component shifts the deterministic numbering). What it
// rebuilds is still reported by the next Refresh.
func (ia *IncrementalAggregator) Snapshot() *Result {
	ia.place()
	res := &Result{
		Graph:                  ia.graph,
		DonationWalletsSkipped: ia.skippedDonations,
		ByWallet:               map[string]*model.Campaign{},
		BySample:               map[string]*model.Campaign{},
	}
	if len(ia.order) > 0 {
		res.Campaigns = make([]*model.Campaign, 0, len(ia.order))
	}
	for i, c := range ia.order {
		id := i + 1
		if c.Campaign == nil {
			ia.rebuild(c, id)
		} else {
			c.Campaign.ID = id
		}
		res.Campaigns = append(res.Campaigns, c.Campaign)
		for _, w := range c.Campaign.Wallets {
			res.ByWallet[w] = c.Campaign
		}
		for _, s := range c.Campaign.Samples {
			res.BySample[s] = c.Campaign
		}
		for _, s := range c.Campaign.Ancillaries {
			res.BySample[s] = c.Campaign
		}
	}
	return res
}
