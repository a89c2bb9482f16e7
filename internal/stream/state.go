package stream

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"cryptomining/internal/campaign"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/graph"
	"cryptomining/internal/probe"
	"cryptomining/internal/timeseries"
)

// EngineState is a self-contained snapshot of everything the engine must
// remember across a process restart: the collector's cross-sample state
// (outcomes, pending bodies, the illicit-wallet set, the dropper relation
// with its miner flags and parked outcomes, the incremental campaign
// partition, the priced-wallet set) plus the live counters and the
// submission-sequence watermark that tells a write-ahead log which entries
// the state already reflects.
//
// Like campaign.AggregatorState, every map is flattened into a sorted slice,
// so the same state always serializes to the same bytes regardless of map
// iteration order. Derived data (the read tier's entry cache, the by-wallet
// index) is deliberately not captured; RestoreState rebuilds it.
//
// A snapshot taken mid-ingestion covers exactly the samples the collector
// has absorbed. Samples still traveling the stage chains are NOT in the
// state — they are covered by the ack watermark: a sequence neither below
// AckLow nor in AckAbove must be re-submitted after a restore (the
// internal/persist recovery path replays them from the WAL tail).
type EngineState struct {
	// AckLow / AckAbove describe which submission sequence numbers this
	// state reflects: every seq < AckLow, plus every seq listed in AckAbove
	// (the out-of-order window above the low watermark). Both are zero/empty
	// when sequence tracking was never used (plain Submit only).
	AckLow   uint64
	AckAbove []uint64

	// Outcomes holds every absorbed sample outcome, sorted by key (the
	// lowercase hash).
	Outcomes []OutcomeState
	// Pending holds the fuzzy hashes and AV labels of samples that may still
	// enter the dataset, sorted by key. No body is retained anywhere: the
	// shards hash it before the collector sees the sample.
	Pending []PendingState
	// Illicit is the sorted set of wallets seen in confirmed malware.
	Illicit []string
	// Relations is the dropper-relation union-find table, sorted by child.
	Relations []HashRelation
	// RelMiners lists the relation roots whose component contains a kept
	// miner, sorted.
	RelMiners []string
	// RelWaiting lists, per relation root (sorted), the keys of malware
	// outcomes parked until their component gains a miner (keys sorted).
	RelWaiting []WaitingState
	// Agg is the incremental campaign aggregator's partition.
	Agg *campaign.AggregatorState
	// SeenWallets is the sorted set of identifiers already priced into the
	// live profit totals.
	SeenWallets []string
	// PricedWallets records, per wallet (sorted), the totals already folded
	// into the live profit counters; restore and re-pricing apply later
	// figures as deltas against it, so nothing double-counts.
	PricedWallets []PricedWalletState
	// Probe is the wallet-probe cache when the engine runs with an
	// asynchronous prober (nil otherwise). Restoring it is what lets a
	// restarted daemon re-probe only TTL-expired wallets instead of
	// re-hammering every pool for the whole set.
	Probe *probe.CacheState
	// Timeseries is the longitudinal metrics store. Its canonical form is
	// already sorted/unrolled, so it rides the same same-state-same-bytes
	// guarantee as the rest. Older daemons could run without series and
	// checkpoint it nil; such a state restores with empty series.
	Timeseries *timeseries.State
	// Counters carries the live stats so uptime, throughput and running
	// totals span restarts.
	Counters CounterState
}

// PricedWalletState is one wallet's contribution to the live profit totals.
type PricedWalletState struct {
	Wallet   string
	XMR, USD float64
}

// OutcomeState pairs an outcome with the key it is stored under.
type OutcomeState struct {
	Key     string
	Outcome SampleOutcome
}

// PendingState is one retained sample awaiting a possible keep: the fuzzy
// hash stock-tool attribution compares its body by (nil when it compares
// none) and its AV labels.
type PendingState struct {
	Key       string
	Signature *fuzzyhash.Signature
	Labels    []string
	// Content is the body, in a state written before the shards computed
	// signatures; RestoreState derives the signature from it.
	Content []byte
}

// HashRelation is one dropper-relation union-find entry.
type HashRelation struct {
	Node   string
	Parent string
	Rank   int
}

// WaitingState lists the outcomes parked on one relation component.
type WaitingState struct {
	Root string
	Keys []string
}

// CounterState is the serializable form of the engine's live counters.
type CounterState struct {
	Submitted  int64
	Analyzed   int64
	Duplicates int64
	Kept       int64
	Miners     int64
	Flips      int64
	Campaigns  int64
	Wallets    int64
	// LiveXMRBits / LiveUSDBits are math.Float64bits of the running totals.
	LiveXMRBits uint64
	LiveUSDBits uint64
	StageCount  [numStages]int64
	StageNanos  [numStages]int64
	// UptimeNanos is the uptime at snapshot time; Start backdates the clock
	// by this much after a restore so uptime spans restarts.
	UptimeNanos int64
}

// ExportState snapshots the engine's durable state under the collector
// mutex. It may be called at any time, including mid-ingestion — but note
// that samples still in the stage pipeline are not part of the snapshot (see
// EngineState); callers without a WAL should quiesce submissions first.
func (e *Engine) ExportState() *EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()

	c := e.col
	st := &EngineState{
		AckLow: e.ackLow,
		Agg:    c.agg.ExportState(),
	}
	st.AckAbove = slices.Sorted(maps.Keys(e.ackAbove))

	for _, k := range slices.Sorted(maps.Keys(c.outcomes)) {
		st.Outcomes = append(st.Outcomes, OutcomeState{Key: k, Outcome: *c.outcomes[k]})
	}
	for _, k := range slices.Sorted(maps.Keys(c.pending)) {
		p := c.pending[k]
		st.Pending = append(st.Pending, PendingState{Key: k, Signature: p.sig, Labels: p.labels})
	}
	st.Illicit = sortedTrueKeys(c.illicit)

	parent, rank := c.rel.Export()
	for _, n := range slices.Sorted(maps.Keys(parent)) {
		st.Relations = append(st.Relations, HashRelation{Node: n, Parent: parent[n], Rank: rank[n]})
	}
	st.RelMiners = sortedTrueKeys(c.relMiner)
	for _, root := range slices.Sorted(maps.Keys(c.relWaiting)) {
		ws := WaitingState{Root: root}
		for _, o := range c.relWaiting[root] {
			ws.Keys = append(ws.Keys, keyOf(o))
		}
		sort.Strings(ws.Keys)
		st.RelWaiting = append(st.RelWaiting, ws)
	}
	st.SeenWallets = sortedTrueKeys(c.seenWallets)
	for _, w := range slices.Sorted(maps.Keys(c.pricedProfit)) {
		p := c.pricedProfit[w]
		st.PricedWallets = append(st.PricedWallets, PricedWalletState{Wallet: w, XMR: p.xmr, USD: p.usd})
	}
	if e.cfg.Prober != nil {
		st.Probe = e.cfg.Prober.ExportCache()
	}
	st.Timeseries = e.ts.Export()

	st.Counters = CounterState{
		Submitted:   e.stats.submitted.Load(),
		Analyzed:    e.stats.analyzed.Load(),
		Duplicates:  e.stats.duplicates.Load(),
		Kept:        e.stats.kept.Load(),
		Miners:      e.stats.miners.Load(),
		Flips:       e.stats.flips.Load(),
		Campaigns:   e.stats.campaigns.Load(),
		Wallets:     e.stats.wallets.Load(),
		LiveXMRBits: e.stats.liveXMRBits.Load(),
		LiveUSDBits: e.stats.liveUSDBits.Load(),
		UptimeNanos: int64(e.stats.uptime()),
	}
	for i := 0; i < numStages; i++ {
		st.Counters.StageCount[i] = e.stats.stageCount[i].Load()
		st.Counters.StageNanos[i] = e.stats.stageNanos[i].Load()
	}
	return st
}

// RestoreState loads a previously exported state into the engine. The
// receiver must be freshly created (stream.New, not yet started, nothing
// submitted) with the same configuration that produced the state. After a
// successful restore the engine behaves exactly as if it had absorbed the
// snapshot's samples in this process: Start, replay the unacked WAL tail,
// continue submitting.
func (e *Engine) RestoreState(st *EngineState) error {
	if e.started.Load() {
		return errors.New("stream: restore into a started engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()

	c := e.col
	if len(c.outcomes) != 0 {
		return errors.New("stream: restore into a non-empty engine")
	}

	if st.AckLow > 0 {
		e.ackLow = st.AckLow
	}
	for _, seq := range st.AckAbove {
		e.ackAbove[seq] = struct{}{}
	}

	for i := range st.Outcomes {
		o := st.Outcomes[i].Outcome
		k := st.Outcomes[i].Key
		c.outcomes[k] = &o
	}
	// Rebuild the by-wallet index over the restored outcome objects, so
	// retroactive illicit-wallet flips keep mutating the canonical outcome.
	for _, k := range slices.Sorted(maps.Keys(c.outcomes)) {
		if o := c.outcomes[k]; o.Record.HasIdentifier() {
			c.byWallet[o.Record.User] = append(c.byWallet[o.Record.User], o)
		}
	}
	for _, p := range st.Pending {
		sig := p.Signature
		if o, ok := c.outcomes[p.Key]; ok && len(p.Content) > 0 {
			sig = c.agg.Signature(&o.Record, p.Content)
		}
		c.pending[p.Key] = pendingInput{sig: sig, labels: p.Labels}
	}
	for _, w := range st.Illicit {
		c.illicit[w] = true
	}

	parent := make(map[string]string, len(st.Relations))
	rank := make(map[string]int, len(st.Relations))
	for _, r := range st.Relations {
		parent[r.Node] = r.Parent
		rank[r.Node] = r.Rank
	}
	c.rel = graph.RestoreDisjointSet(parent, rank)
	for _, root := range st.RelMiners {
		c.relMiner[root] = true
	}
	for _, ws := range st.RelWaiting {
		for _, k := range ws.Keys {
			o, ok := c.outcomes[k]
			if !ok {
				return fmt.Errorf("stream: parked outcome %s missing from state", k)
			}
			c.relWaiting[ws.Root] = append(c.relWaiting[ws.Root], o)
		}
	}

	if st.Agg != nil {
		if err := c.agg.RestoreState(st.Agg); err != nil {
			return fmt.Errorf("stream: restore aggregator: %w", err)
		}
	}
	for _, w := range st.SeenWallets {
		c.seenWallets[w] = true
	}
	for _, p := range st.PricedWallets {
		c.pricedProfit[p.Wallet] = pricedTotals{xmr: p.XMR, usd: p.USD}
	}

	// Restore the series after the aggregator: rebuilding the partition may
	// fire timeline-merge hooks, which must not touch restored timelines
	// (they are no-ops against the still-empty store this early). A nil
	// Timeseries leaves the series empty.
	if err := e.ts.Restore(st.Timeseries); err != nil {
		return fmt.Errorf("stream: restore timeseries: %w", err)
	}

	cs := st.Counters
	// The submitted counter may have included samples that were still
	// in-flight at snapshot time; those will be re-submitted from the WAL
	// tail and counted again. When sequence tracking was active, the exact
	// number of fully processed submissions is known — use it instead.
	if st.AckLow > 1 || len(st.AckAbove) > 0 {
		e.stats.submitted.Store(int64(st.AckLow-1) + int64(len(st.AckAbove)))
	} else {
		e.stats.submitted.Store(cs.Submitted)
	}
	e.stats.analyzed.Store(cs.Analyzed)
	e.stats.duplicates.Store(cs.Duplicates)
	e.stats.kept.Store(cs.Kept)
	e.stats.miners.Store(cs.Miners)
	e.stats.flips.Store(cs.Flips)
	e.stats.campaigns.Store(cs.Campaigns)
	e.stats.wallets.Store(cs.Wallets)
	e.stats.liveXMRBits.Store(cs.LiveXMRBits)
	e.stats.liveUSDBits.Store(cs.LiveUSDBits)
	for i := 0; i < numStages; i++ {
		e.stats.stageCount[i].Store(cs.StageCount[i])
		e.stats.stageNanos[i].Store(cs.StageNanos[i])
	}
	e.stats.carriedNanos.Store(cs.UptimeNanos)
	e.stats.markStart()

	if p := e.cfg.Prober; p != nil {
		p.RestoreCache(st.Probe)
		// The checkpoint captured the engine state and the probe cache under
		// different locks. This runs after the counter restore above, which
		// it adjusts.
		c.reconcileProbeCache(st.SeenWallets)
		// Resume the crawl where it stopped: exactly the seen wallets that
		// were never probed (in flight or queued at the crash), carry a probe
		// error, or have outlived the TTL.
		p.EnsureFresh(st.SeenWallets)
	}
	// Publish the restored state to the read tier, so clients of a freshly
	// restored daemon see the checkpoint's campaigns before the WAL tail
	// replays (each replayed batch then republishes as usual). The aggregator
	// reports every restored component as changed, so this publication also
	// rebuilds the whole entry cache.
	e.publishViewLocked()
	return nil
}

// sortedTrueKeys returns the sorted keys mapped to true. Flag maps may hold
// explicit false entries (e.g. a relation root whose component lost its
// miner-flag holder to a merge); those are semantically absent and excluded,
// which also keeps the serialized form canonical.
func sortedTrueKeys(m map[string]bool) []string {
	var out []string
	for k, v := range m {
		if v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
