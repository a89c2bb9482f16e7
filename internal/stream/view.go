package stream

import (
	"cmp"
	"slices"
	"time"

	"cryptomining/internal/campaign"
	"cryptomining/internal/model"
	"cryptomining/internal/profit"
)

// View is one immutable, epoch-numbered snapshot of everything the read tier
// serves: the priced campaign listing (earnings-descending), the full detail
// views, the campaign-to-timeline-key mapping and the data-time yearly
// breakdown. The collector publishes a fresh View via atomic pointer swap at
// the end of every aggregation batch, after each dataset-relevant probe
// completion, on finalize and on state restore — readers load the pointer and
// never touch the collector mutex, so a GET can never stall ingestion (and a
// long checkpoint can never stall a GET).
//
// Everything reachable from a View is immutable once published: its own
// slices are allocated per publication, and the slices inside a listing row
// or a detail hang off campaign objects that are only ever replaced (a dirty
// component is rebuilt as a fresh campaign, a re-price installs a fresh pool
// list). The epoch increases by exactly one per publication, which is what
// lets the API layer use it as a strong ETag.
type View struct {
	// Epoch counts publications since engine creation (0 = the empty view
	// seeded by New, before anything was absorbed).
	Epoch uint64
	// Published is the wall-clock publication instant, for staleness gauges.
	Published time.Time
	// Campaigns is the full priced listing, sorted by XMR earned (highest
	// first), ties in deterministic partition order.
	Campaigns []CampaignView
	// Details holds every campaign's full detail view by position: campaign
	// IDs are dense, so Details[id-1] is campaign id (see Detail). The
	// pointed-to details are shared with later views and must not be written.
	Details []*CampaignDetail
	// TimelineKeys holds, by the same position, the partition's stable
	// component key under which the timeseries store files the campaign's
	// timeline (see TimelineKey). Nil when the timeseries subsystem is
	// disabled.
	TimelineKeys []string
	// Years is the data-time yearly-evolution breakdown (nil when the
	// timeseries subsystem is disabled).
	Years []YearStats
}

// Detail returns the full view of the campaign with the given ID, or false
// when the snapshot has no such campaign.
func (v *View) Detail(id int) (CampaignDetail, bool) {
	if id < 1 || id > len(v.Details) {
		return CampaignDetail{}, false
	}
	return *v.Details[id-1], true
}

// TimelineKey returns the key the campaign's timeline is filed under, or
// false when the snapshot has no such campaign or records no timelines.
func (v *View) TimelineKey(id int) (string, bool) {
	if id < 1 || id > len(v.TimelineKeys) {
		return "", false
	}
	return v.TimelineKeys[id-1], true
}

// CurrentView returns the engine's latest published snapshot. It never
// returns nil and never blocks: New seeds an empty epoch-0 view before the
// engine can be observed.
func (e *Engine) CurrentView() *View {
	return e.view.Load()
}

// viewEntry is everything the read tier derives from one live component: the
// priced detail view (whose embedded CampaignView is the listing row) and the
// key it is filed under. The collector keeps one per component, hung on
// campaign.Component.Attachment so it lives exactly as long as the component,
// and re-derives it only when the aggregator rebuilt the component or a
// wallet of the component was re-priced; a publication copies entries, it
// does not recompute them.
type viewEntry struct {
	// comp is nil once the component was merged away.
	comp *campaign.Component
	// detail is what the last publication served, shared with every view
	// since: it is replaced, never written. Its ID is the campaign's position
	// in that publication — IDs shift whenever a component is inserted or
	// merged ahead of this one, so each publication checks it and re-stamps a
	// copy when the position moved.
	detail *CampaignDetail
	// key is the component key the entry was derived under: the campaign's
	// timeline key and, being the encoding of the component's least node, its
	// rank in partition order.
	key string
	// filed reports that the entry is in collector.byEarnings and counted in
	// collector.years, under the detail and key it holds now.
	filed bool
	// stale reports that the entry is queued in collector.stale.
	stale bool
}

// yearTally counts, for one calendar year, the campaigns that started in it
// and the campaigns whose first-seen..last-seen span covers it.
type yearTally struct {
	started, active int
}

// compareEarnings orders entries as the listing shows them: XMR descending,
// ties in partition order.
func compareEarnings(a, b *viewEntry) int {
	if c := cmp.Compare(b.detail.XMR, a.detail.XMR); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// markWalletStale queues the entry of the component that owns the wallet for
// re-pricing at the next publication. Donation wallets and other identifiers
// that are not grouping nodes belong to no campaign and queue nothing.
func (c *collector) markWalletStale(wallet string) {
	comp := c.agg.WalletComponent(wallet)
	if comp == nil {
		return
	}
	// A component without an entry has not been published yet: the aggregator
	// still reports it as changed, which prices it.
	if ent, ok := comp.Attachment.(*viewEntry); ok && !ent.stale {
		ent.stale = true
		c.stale = append(c.stale, ent)
	}
}

// syncPartition applies what happened to the partition since the last
// publication to the entry cache — entries of merged-away components are
// dropped, new components get one — and returns the entries to re-derive:
// those of created or rebuilt components plus those queued by
// markWalletStale. The slice is only valid until the next markWalletStale.
func (c *collector) syncPartition() []*viewEntry {
	changed, gone := c.agg.Refresh()
	for _, comp := range gone {
		ent := comp.Attachment.(*viewEntry)
		c.unfile(ent)
		ent.comp, comp.Attachment = nil, nil
	}
	dirty := c.stale
	for _, comp := range changed {
		ent, ok := comp.Attachment.(*viewEntry)
		if !ok {
			ent = &viewEntry{comp: comp}
			comp.Attachment = ent
		}
		if !ent.stale {
			ent.stale = true
			dirty = append(dirty, ent)
		}
	}
	live := dirty[:0]
	for _, ent := range dirty {
		ent.stale = false
		if ent.comp != nil {
			live = append(live, ent)
		}
	}
	clear(dirty[len(live):])
	c.stale = dirty[:0]
	return live
}

// refreshEntries brings the entry cache up to date with the partition and
// with the wallet activity, re-pricing and re-deriving the dirty entries and
// nothing else. It returns how many it re-derived.
func (c *collector) refreshEntries() int {
	dirty := c.syncPartition()
	// When every component changed (the first publication after a restore)
	// there is no order to preserve: sort once instead of moving every entry.
	all := len(dirty) == len(c.agg.Components())
	if all {
		c.unfileAll()
	}
	for _, ent := range dirty {
		c.derive(ent, profit.AnalyzeCampaignWith(ent.comp.Campaign, c.collect, c.e.cfg.QueryTime), all)
	}
	if all {
		slices.SortFunc(c.byEarnings, compareEarnings)
	}
	return len(dirty)
}

// derive recomputes an entry from its component's campaign as just priced.
// AnalyzeCampaignWith has written the price and the merged pool list into the
// campaign, so this must follow every re-price. With unsorted set the entry
// is appended to the earnings order, which the caller then sorts.
func (c *collector) derive(ent *viewEntry, cp profit.CampaignProfit, unsorted bool) {
	c.unfile(ent)
	d := detailOf(ent.comp.Campaign, cp)
	if ent.detail != nil {
		// Most re-derivations leave the position alone; keeping the ID saves
		// the publication a second copy.
		d.ID = ent.detail.ID
	}
	ent.key, ent.detail = ent.comp.Key(), &d
	ent.filed = true
	c.tallyYears(ent.detail, 1)
	if unsorted {
		c.byEarnings = append(c.byEarnings, ent)
		return
	}
	i, _ := slices.BinarySearchFunc(c.byEarnings, ent, compareEarnings)
	c.byEarnings = slices.Insert(c.byEarnings, i, ent)
}

// unfile takes an entry out of the earnings order and the yearly roll-up,
// under the figures it was filed with.
func (c *collector) unfile(ent *viewEntry) {
	if !ent.filed {
		return
	}
	ent.filed = false
	c.tallyYears(ent.detail, -1)
	i, _ := slices.BinarySearchFunc(c.byEarnings, ent, compareEarnings)
	c.byEarnings = slices.Delete(c.byEarnings, i, i+1)
}

// unfileAll empties the earnings order and the yearly roll-up.
func (c *collector) unfileAll() {
	for _, ent := range c.byEarnings {
		ent.filed = false
	}
	clear(c.byEarnings)
	c.byEarnings = c.byEarnings[:0]
	clear(c.years)
}

// tallyYears adds (or, with delta -1, takes back) one campaign's first-seen
// year and activity span to the yearly roll-up.
func (c *collector) tallyYears(d *CampaignDetail, delta int) {
	if c.e.ts == nil || d.FirstSeen.IsZero() {
		return
	}
	first := d.FirstSeen.Year()
	c.addTally(first, yearTally{started: delta})
	if d.LastSeen.Before(d.FirstSeen) {
		return
	}
	for y := first; y <= d.LastSeen.Year(); y++ {
		c.addTally(y, yearTally{active: delta})
	}
}

func (c *collector) addTally(year int, d yearTally) {
	t := c.years[year]
	t.started += d.started
	t.active += d.active
	if t == (yearTally{}) {
		delete(c.years, year)
	} else {
		c.years[year] = t
	}
}

// publishViewLocked brings the entry cache up to date and swaps in a view
// assembled from it. Caller must hold e.mu. Pricing happens here, on the
// write path — once per dirtied campaign instead of once per request — and
// the assembly is two flat passes over the cached entries (partition order
// for the details, which also checks the IDs; earnings order for the
// listing): a publication costs the components dirtied since the last one
// plus those copies, not a rebuild of every campaign.
func (e *Engine) publishViewLocked() {
	var t0 time.Time
	if e.obs.publish != nil {
		t0 = time.Now() //cryptolint:allow directclock view-publication telemetry only
	}
	c := e.col
	rederived := c.refreshEntries()
	comps := c.agg.Components()
	v := &View{
		Epoch:     e.view.Load().Epoch + 1,
		Published: e.publishInstant(),
		Campaigns: make([]CampaignView, len(comps)),
		Details:   make([]*CampaignDetail, len(comps)),
	}
	if e.ts != nil {
		v.TimelineKeys = make([]string, len(comps))
		v.Years = e.yearStats()
	}
	for i, comp := range comps {
		ent := comp.Attachment.(*viewEntry)
		if ent.detail.ID != i+1 {
			d := *ent.detail
			d.ID = i + 1
			ent.detail = &d
		}
		v.Details[i] = ent.detail
		if v.TimelineKeys != nil {
			v.TimelineKeys[i] = ent.key
		}
	}
	for i, ent := range c.byEarnings {
		v.Campaigns[i] = ent.detail.CampaignView
	}
	e.view.Store(v)
	if e.obs.publish != nil {
		e.obs.publish.Observe(time.Since(t0).Seconds()) //cryptolint:allow directclock view-publication telemetry only
		e.obs.rebuilt.Add(float64(rederived))
		e.obs.reused.Add(float64(len(comps) - rederived))
	}
}

// publishInstant resolves the timestamp stamped on a published view. With
// the timeseries store live the recording clock is a shared, possibly
// logical sequence — a fresh reading here would consume a tick and shift
// every later series point in replayed runs — so views reuse the batch's
// already-read recording instant, falling back to the fixed analysis query
// time before the first batch records. Only with the store disabled is the
// clock free-standing, making a direct reading safe.
func (e *Engine) publishInstant() time.Time {
	if e.ts == nil {
		return e.cfg.Timeseries.Clock()
	}
	if e.col != nil && !e.col.now.IsZero() {
		return e.col.now
	}
	return e.cfg.QueryTime
}

// emptyView is the epoch-0 snapshot every engine starts with, stamped like
// any published view so replayed runs stay identical.
func emptyView(at time.Time) *View {
	return &View{Published: at}
}

// viewOf assembles the listing row of one priced campaign, ID aside: the
// publication stamps it.
func viewOf(c *model.Campaign, cp profit.CampaignProfit) CampaignView {
	return CampaignView{
		Samples:     len(c.Samples),
		Ancillaries: len(c.Ancillaries),
		Wallets:     c.Wallets,
		Pools:       c.Pools,
		XMR:         cp.XMR,
		USD:         cp.USD,
		Active:      cp.ActiveAt,
	}
}

// detailOf assembles the full detail view of one priced campaign.
func detailOf(c *model.Campaign, cp profit.CampaignProfit) CampaignDetail {
	d := CampaignDetail{
		CampaignView:    viewOf(c, cp),
		SampleHashes:    c.Samples,
		AncillaryHashes: c.Ancillaries,
		CNAMEs:          c.CNAMEs,
		Proxies:         c.Proxies,
		HostingDomains:  c.HostingDomains,
		PPIBotnets:      c.PPIBotnets,
		StockTools:      c.StockTools,
		KnownOperations: c.KnownOperations,
		UsesObfuscation: c.UsesObfuscation,
		FirstSeen:       c.FirstSeen,
		LastSeen:        c.LastSeen,
		Payments:        len(cp.Payments),
		PoolsUsed:       cp.PoolsUsed,
		FirstPayment:    cp.FirstPayment,
		LastPayment:     cp.LastPayment,
	}
	for _, cur := range c.Currencies {
		d.Currencies = append(d.Currencies, string(cur))
	}
	return d
}

// HoldCollectorLock acquires the engine's collector mutex and returns the
// release function. It exists for isolation tests that assert the read tier
// keeps serving published snapshots while the collector is busy (simulating a
// long checkpoint or aggregation stall); production code has no reason to
// call it.
func (e *Engine) HoldCollectorLock() (release func()) {
	e.mu.Lock()
	return e.mu.Unlock
}
