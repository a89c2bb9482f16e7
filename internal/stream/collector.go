package stream

import (
	"slices"
	"sort"
	"strings"
	"time"

	"cryptomining/internal/campaign"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/graph"
	"cryptomining/internal/model"
	"cryptomining/internal/pool"
	"cryptomining/internal/profit"
	"cryptomining/internal/timeseries"
)

// collector owns every piece of cross-sample state the batch pipeline
// computed in separate whole-corpus passes, and maintains it incrementally:
//
//   - the illicit-wallet exception (a below-threshold sample carrying a
//     wallet already seen in confirmed malware is retroactively kept);
//   - dropper-relation reachability (malware connected to a miner through
//     the parent/dropped graph is kept as ancillary), via a union-find over
//     sample hashes with a per-component "contains a miner" flag;
//   - the campaign partition (campaign.IncrementalAggregator);
//   - per-campaign profit, through a shared per-wallet activity cache.
//
// All rules are monotone — outcomes only ever flip toward malware, the keep
// set only grows, components only merge — which is why applying them at each
// arrival reaches exactly the fixpoint the batch passes compute at the end.
// The collector runs in a single goroutine; the engine serializes external
// reads (Stats, live snapshots, finalize) with its mutex.
type collector struct {
	e *Engine

	outcomes map[string]*SampleOutcome //cryptolint:guardedby Engine.mu
	// pending holds what the aggregation will need should a sample be kept
	// later (the body's fuzzy hash for stock-tool attribution, AV labels for
	// PPI enrichment), never the body; entries are dropped once fed to the
	// aggregator.
	pending map[string]pendingInput //cryptolint:guardedby Engine.mu
	// byWallet indexes outcomes carrying an identifier, for retroactive
	// illicit-wallet flips.
	byWallet map[string][]*SampleOutcome //cryptolint:guardedby Engine.mu
	illicit  map[string]bool             //cryptolint:guardedby Engine.mu

	// rel is the union-find over sample hashes for the parent/dropped
	// relation.
	rel *graph.DisjointSet[string]
	// relMiner flags roots whose component contains a kept miner.
	relMiner map[string]bool
	// relWaiting holds malware outcomes parked until their component gains a
	// miner.
	relWaiting map[string][]*SampleOutcome

	agg     *campaign.IncrementalAggregator
	wallets *profit.CachedCollector
	// collect is the wallet-activity source all pricing flows through: the
	// synchronous cached collector by default, or the probe cache when a
	// prober is attached (Config.Prober).
	collect func(string) profit.WalletActivity
	// seenWallets tracks distinct identifiers across kept records, for the
	// live profit running totals (and, in probe mode, for deciding which
	// probe completions concern the dataset).
	seenWallets map[string]bool //cryptolint:guardedby Engine.mu
	// pricedProfit records, per wallet, the totals already folded into the
	// live profit counters in probe mode; probe updates apply deltas against
	// it so TTL refreshes adjust rather than double-count.
	pricedProfit map[string]pricedTotals //cryptolint:guardedby Engine.mu
	// byEarnings is the read tier's entry cache (see viewEntry), one entry
	// per live component, in listing order; stale queues the entries whose
	// wallets were re-priced since the last publication, and years is the
	// yearly roll-up over the entries' first-seen..last-seen spans. All three
	// are derived data: never exported, rebuilt by the first publication
	// after a restore.
	byEarnings []*viewEntry      //cryptolint:guardedby Engine.mu
	stale      []*viewEntry      //cryptolint:guardedby Engine.mu
	years      map[int]yearTally //cryptolint:guardedby Engine.mu
	// finalized flips once finalize has sealed the results; late probe
	// updates (forced refreshes) must no longer touch shared campaign state.
	finalized bool //cryptolint:guardedby Engine.mu
	// now is the timeseries recording timestamp for the event currently
	// being collected; the engine reads its clock once per event (collected
	// sample or probe completion) so every series point the event records
	// shares one timestamp. Unused when the timeseries store is disabled.
	now time.Time
}

// pricedTotals is one wallet's contribution to the live profit counters.
type pricedTotals struct {
	xmr, usd float64
}

type pendingInput struct {
	sig    *fuzzyhash.Signature
	labels []string
}

func newCollector(e *Engine) *collector {
	c := &collector{
		e:            e,
		outcomes:     map[string]*SampleOutcome{},
		pending:      map[string]pendingInput{},
		byWallet:     map[string][]*SampleOutcome{},
		illicit:      map[string]bool{},
		rel:          graph.NewDisjointSet[string](),
		relMiner:     map[string]bool{},
		relWaiting:   map[string][]*SampleOutcome{},
		agg:          campaign.NewIncremental(aggregatorConfig(e.cfg)),
		wallets:      profit.NewCachedCollector(profit.NewCollector(e.cfg.Pools, e.cfg.Rates, e.cfg.QueryTime)),
		seenWallets:  map[string]bool{},
		pricedProfit: map[string]pricedTotals{},
		years:        map[int]yearTally{},
	}
	if e.cfg.Prober != nil {
		c.collect = e.cfg.Prober.CollectWallet
	} else {
		c.collect = c.wallets.CollectWallet
	}
	if e.ts != nil {
		// Campaign timelines are keyed by the partition's stable component
		// keys; when components merge, the timelines merge with them, so a
		// campaign's timeline always covers its full constituent history.
		c.agg.SetMergeHook(e.ts.MergeTimeline)
	}
	return c
}

// handle processes one analyzed sample: records it, wires it into the
// relation graph, applies the illicit-wallet exception in both directions,
// and decides (possibly retroactively, for earlier samples) what is kept.
// It reports whether the sample was absorbed (false for duplicates, which
// must not count toward analysis throughput).
func (c *collector) handle(it *Task) bool {
	o := it.outcome
	h := it.key
	if _, seen := c.outcomes[h]; seen {
		// A continuous feed re-observes samples; the dataset is defined over
		// distinct hashes (feed consolidation dedups upstream in batch mode),
		// so resubmissions must not double-feed the aggregation or stats. The
		// duplicates counter is bumped by collect after the batch's view
		// publication, alongside analyzed.
		return false
	}
	c.outcomes[h] = o
	c.pending[h] = pendingInput{sig: it.sig, labels: it.labels}

	if o.Record.HasIdentifier() {
		c.byWallet[o.Record.User] = append(c.byWallet[o.Record.User], o)
	}

	// Relation edges come from every outcome, kept or not: a benign-looking
	// intermediary still connects a dropper to its payload. Hashes are
	// case-normalized into the same namespace as the sample keys.
	for _, parent := range o.Record.Parents {
		c.relUnion(h, lowerHash(parent))
	}
	for _, child := range o.Record.Dropped {
		c.relUnion(h, lowerHash(child))
	}

	// Illicit-wallet exception, both directions: the arriving sample may be
	// upgraded by an already-illicit wallet, and its own wallet may upgrade
	// samples that arrived before it.
	c.maybeFlip(o)
	if o.IsMalware && o.Record.HasIdentifier() {
		c.markIllicit(o.Record.User)
	}

	c.decideKeep(o, h)

	// Bound memory on long-running ingestions: pending inputs are only
	// retained for samples that can still enter the dataset. Anything failing
	// the flip preconditions for good (benign, non-executable, whitelisted, no
	// identifier) can never be kept, so its entry is released immediately.
	if !o.Kept && !retainable(o) {
		delete(c.pending, h)
	}
	return true
}

// retainable reports whether a not-(yet-)kept outcome may still be kept
// later: confirmed malware parked on the dropper relation, or a sample still
// eligible for the illicit-wallet flip. It reads only the outcome, and is
// already true of every outcome the collector will keep when the enrich stage
// asks (a flip needs its preconditions), so that stage computes signatures
// for exactly the samples the collector retains.
func retainable(o *SampleOutcome) bool {
	if o.IsMalware {
		return true
	}
	return !o.Whitelisted && o.Executable && o.Positives > 0 && o.Record.HasIdentifier()
}

// maybeFlip applies the illicit-wallet exception to one outcome: a sample
// below the malware threshold but with at least one positive, carrying a
// wallet independently confirmed as illicit, counts as malware.
func (c *collector) maybeFlip(o *SampleOutcome) {
	if o.Whitelisted || !o.Executable {
		return
	}
	if !o.IsMalware && o.Positives > 0 && o.Record.HasIdentifier() && c.illicit[o.Record.User] {
		o.IsMalware = true
		c.e.stats.flips.Add(1)
	}
}

// markIllicit registers a wallet seen in confirmed malware and retroactively
// upgrades earlier below-threshold samples carrying it.
func (c *collector) markIllicit(wallet string) {
	if wallet == "" || c.illicit[wallet] {
		return
	}
	c.illicit[wallet] = true
	for _, cand := range c.byWallet[wallet] {
		if cand.IsMalware {
			continue
		}
		c.maybeFlip(cand)
		if cand.IsMalware {
			c.decideKeep(cand, keyOf(cand))
		}
	}
}

func keyOf(o *SampleOutcome) string { return lowerHash(o.SHA256) }

// decideKeep applies the dataset-membership rule to a (newly) malware
// outcome: miners are kept outright (and seed their component's miner flag);
// other malware is kept as ancillary once its component contains a miner,
// and parked otherwise.
func (c *collector) decideKeep(o *SampleOutcome, h string) {
	if o.Kept || !o.IsMalware {
		return
	}
	root := c.relFind(h)
	switch {
	case o.IsMiner:
		o.Kept = true
		if o.Record.Type != model.TypeMiner {
			// Mining indicators without a complete (wallet, pool) pair:
			// keep the sample as an ancillary.
			o.Record.Type = model.TypeAncillary
		}
		c.keep(o)
		if !c.relMiner[root] {
			c.relMiner[root] = true
			c.releaseWaiting(root)
		}
	case c.relMiner[root]:
		o.Kept = true
		o.Record.Type = model.TypeAncillary
		c.keep(o)
	default:
		c.relWaiting[root] = append(c.relWaiting[root], o)
	}
}

// releaseWaiting keeps every malware outcome parked on a component that just
// gained a miner.
func (c *collector) releaseWaiting(root string) {
	waiting := c.relWaiting[root]
	if len(waiting) == 0 {
		return
	}
	delete(c.relWaiting, root)
	for _, o := range waiting {
		if o.Kept {
			continue
		}
		o.Kept = true
		o.Record.Type = model.TypeAncillary
		c.keep(o)
	}
}

// keep feeds one kept outcome into the incremental aggregation and the live
// profit totals.
func (c *collector) keep(o *SampleOutcome) {
	h := keyOf(o)
	pc := c.pending[h]
	delete(c.pending, h)
	c.agg.SetAVLabels(o.SHA256, pc.labels)
	in := campaign.Input{Record: o.Record, Signature: pc.sig}
	if c.e.cfg.GroundTruth != nil {
		in.GroundTruthID = c.e.cfg.GroundTruth[o.Record.SHA256]
	}
	c.agg.Add(in)

	c.e.stats.kept.Add(1)
	if o.Record.Type == model.TypeMiner {
		c.e.stats.miners.Add(1)
	}
	c.e.stats.campaigns.Store(int64(c.agg.Len()))

	if ts := c.e.ts; ts != nil {
		ts.Record(timeseries.SeriesKept, c.now, 1)
		ts.Record(timeseries.SeriesCampaigns, c.now, float64(c.agg.Len()))
		if pn := c.poolNameOf(&o.Record); pn != "" {
			ts.Record(timeseries.PoolSeriesPrefix+pn, c.now, 1)
		}
		ts.RecordYear(o.Record.FirstSeen)
		if key, ok := c.agg.ComponentKey(o.Record.SHA256); ok {
			ts.RecordTimeline(key, timeseries.TimelineSamples, c.now, 1)
		}
	}

	// Live profit running totals: first sighting of a wallet. With a prober
	// the pool queries leave the hot path — the sighting only enqueues an
	// asynchronous probe, and totals land when it completes (immediately, if
	// the cache already holds the wallet). Without one, activity is pulled
	// synchronously through the shared cache as before.
	if o.Record.HasIdentifier() && !c.seenWallets[o.Record.User] {
		wallet := o.Record.User
		c.seenWallets[wallet] = true
		if ts := c.e.ts; ts != nil {
			if key, ok := c.agg.WalletComponentKey(wallet); ok {
				ts.RecordTimeline(key, timeseries.TimelineWallets, c.now, 1)
			}
		}
		if p := c.e.cfg.Prober; p != nil {
			p.Enqueue(wallet)
			if ent, ok := p.Peek(wallet); ok {
				c.applyProbedActivity(wallet, ent.Activity)
			}
		} else if _, donation := c.e.cfg.OSINT.IsDonationWallet(wallet); !donation {
			act := c.wallets.CollectWallet(wallet)
			c.e.stats.wallets.Add(1)
			c.e.stats.addLiveProfit(act.TotalXMR, act.TotalUSD)
			c.recordProfitTS(wallet, act.TotalXMR)
		}
	}

	c.e.publish(Event{
		Type:       EventSampleKept,
		SHA256:     o.Record.SHA256,
		SampleType: string(o.Record.Type),
		Wallet:     o.Record.User,
		Pool:       o.Record.Pool,
		Campaigns:  c.agg.Len(),
		Kept:       int(c.e.stats.kept.Load()),
	})
}

// poolNameOf resolves the normalized pool a kept record mines at, for the
// per-pool share series: the extracted name when present, else a directory
// lookup on the mining endpoint's host. Records mining through proxies or
// unknown endpoints resolve to nothing and contribute to no pool series.
func (c *collector) poolNameOf(rec *model.Record) string {
	if rec.Pool != "" {
		return rec.Pool
	}
	if rec.URLPool == "" {
		return ""
	}
	// Same host extraction + lowercase as the keep-decision path
	// (contactsKnownPool) — a mixed-case endpoint that was kept as a miner
	// must contribute to its pool's share too.
	host := strings.ToLower(pool.HostOfEndpoint(rec.URLPool))
	if p, ok := c.e.cfg.Pools.PoolForDomain(host); ok {
		return p.Name
	}
	return ""
}

// applyProbedActivity folds one probed wallet's cross-pool totals into the
// live profit counters, as a delta against what the wallet contributed
// before — so a TTL refresh against live pools adjusts the running figures
// instead of double-counting, and re-applying an unchanged activity is a
// no-op. Donation wallets stay excluded from the running totals, exactly as
// in the synchronous path. Called under e.mu.
func (c *collector) applyProbedActivity(wallet string, act profit.WalletActivity) {
	if _, donation := c.e.cfg.OSINT.IsDonationWallet(wallet); donation {
		return
	}
	prev, counted := c.pricedProfit[wallet]
	if !counted {
		c.e.stats.wallets.Add(1)
	}
	c.e.stats.addLiveProfit(act.TotalXMR-prev.xmr, act.TotalUSD-prev.usd)
	c.pricedProfit[wallet] = pricedTotals{xmr: act.TotalXMR, usd: act.TotalUSD}
	c.recordProfitTS(wallet, act.TotalXMR-prev.xmr)
}

// reconcileProbeCache re-applies the cached activity of every given wallet.
// A probe lands in the cache before its update reaches the collector, so a
// checkpoint or a Finish can run between the two; the deltas make
// already-applied entries no-ops. A non-zero delta records series points, so
// the recording clock is stamped first — otherwise they would land in a
// bucket at the zero time (year 1). A no-op without a prober. Called under
// e.mu.
func (c *collector) reconcileProbeCache(wallets []string) {
	p := c.e.cfg.Prober
	if p == nil {
		return
	}
	if c.e.ts != nil {
		c.now = c.e.cfg.Timeseries.Clock()
	}
	for _, w := range wallets {
		if ent, ok := p.Peek(w); ok {
			c.applyProbedActivity(w, ent.Activity)
		}
	}
}

// recordProfitTS folds one wallet's priced-XMR delta into the longitudinal
// series: the ecosystem running-total gauge, and the timeline of the
// campaign the wallet belongs to. Zero deltas record nothing, which is what
// keeps a checkpoint-restore's delta reconciliation (re-applying cached
// activities as no-op deltas) from perturbing the restored series. Called
// under e.mu.
func (c *collector) recordProfitTS(wallet string, deltaXMR float64) {
	ts := c.e.ts
	if ts == nil || deltaXMR == 0 {
		return
	}
	ts.Record(timeseries.SeriesXMR, c.now, c.e.stats.liveXMR())
	if key, ok := c.agg.WalletComponentKey(wallet); ok {
		ts.RecordTimeline(key, timeseries.TimelineXMR, c.now, deltaXMR)
	}
}

// relFind returns the relation-component root of a sample hash.
func (c *collector) relFind(x string) string { return c.rel.Find(x) }

// relUnion merges the components of two related sample hashes, combining the
// miner flag and the parked outcomes — and releasing the latter when the
// merge connects them to a miner.
func (c *collector) relUnion(a, b string) {
	if a == "" || b == "" || a == b {
		return
	}
	root, absorbed, merged := c.rel.Union(a, b)
	if !merged {
		return
	}
	miner := c.relMiner[root] || c.relMiner[absorbed]
	c.relMiner[root] = miner
	delete(c.relMiner, absorbed)
	if waiting := c.relWaiting[absorbed]; len(waiting) > 0 {
		c.relWaiting[root] = append(c.relWaiting[root], waiting...)
		delete(c.relWaiting, absorbed)
	}
	if miner {
		c.releaseWaiting(root)
	}
}

// finalize assembles the full Results from the collector's state. Everything
// derived here iterates in deterministic (sorted) order, so the output is
// bit-identical regardless of arrival order or shard count.
func (c *collector) finalize() *Results {
	c.finalized = true
	res := &Results{
		Outcomes:         c.outcomes,
		CountsBySource:   map[model.Source]int{},
		CountsByResource: map[model.AnalysisResource]int{},
		QueryTime:        c.e.cfg.QueryTime,
	}
	hashes := make([]string, 0, len(c.outcomes))
	for h := range c.outcomes {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)

	identifierSet := map[string]bool{}
	for _, h := range hashes {
		o := c.outcomes[h]
		if !o.Kept {
			continue
		}
		res.Records = append(res.Records, o.Record)
		if o.Record.Type == model.TypeMiner {
			res.MinerRecords = append(res.MinerRecords, o.Record)
		} else {
			res.AncillaryRecords = append(res.AncillaryRecords, o.Record)
		}
		if o.Record.HasIdentifier() {
			identifierSet[o.Record.User] = true
		}
		for _, src := range o.Record.Sources {
			res.CountsBySource[src]++
		}
		for _, r := range o.Record.Resources {
			res.CountsByResource[r]++
		}
	}
	res.Identifiers = len(identifierSet)

	res.Aggregation = c.agg.Snapshot()
	res.Campaigns = res.Aggregation.Campaigns
	// Price every campaign once, against the converged activity, and derive
	// every cached entry from those figures: publications after Finish then
	// only copy, never re-price — they must not mutate campaigns shared with
	// the returned Results.
	c.syncPartition()
	c.unfileAll()
	for _, comp := range c.agg.Components() {
		cp := profit.AnalyzeCampaignWith(comp.Campaign, c.collect, c.e.cfg.QueryTime)
		c.derive(comp.Attachment.(*viewEntry), cp, true)
		if cp.XMR > 0 {
			res.Profits = append(res.Profits, cp)
		}
	}
	slices.SortFunc(c.byEarnings, compareEarnings)
	sort.Slice(res.Profits, func(i, j int) bool { return res.Profits[i].XMR > res.Profits[j].XMR })
	for _, cp := range res.Profits {
		res.TotalXMR += cp.XMR
		res.TotalUSD += cp.USD
	}
	res.CirculationShare = profit.CirculationShare(res.TotalXMR, c.e.cfg.Network, c.e.cfg.QueryTime)

	c.e.publish(Event{
		Type:      EventDrained,
		Campaigns: len(res.Campaigns),
		Kept:      len(res.Records),
	})
	return res
}
