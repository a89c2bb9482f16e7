package stream

import (
	"sort"

	"cryptomining/internal/model"
	"cryptomining/internal/probe"
	"cryptomining/internal/profit"
	"cryptomining/internal/report"
)

// This file is the white-box side of the package's external tests: the
// reference view builder (view_test.go compares every published view with
// it) and the seams those tests drive the collector through.

// ReferenceView is what referenceView builds: a view in the shape views had
// while every publication rebuilt them in full.
type ReferenceView struct {
	Campaigns    []CampaignView
	Details      map[int]CampaignDetail
	TimelineKeys map[int]string
	Years        []YearStats
}

// Reference rebuilds the view from the collector's state the way
// publishViewLocked did before views were assembled from cached entries —
// snapshot the whole partition, price every campaign, derive every row,
// resolve every timeline key by walking the members, stable-sort, recount the
// years — and returns it with the view published at that instant. Nothing it
// computes is shared with the entry cache. It prices copies, so the engine's
// campaigns are left as the engine priced them.
func (e *Engine) Reference() (ReferenceView, *View) {
	e.mu.Lock()
	defer e.mu.Unlock()
	res := e.col.agg.Snapshot()
	ref := ReferenceView{
		Campaigns:    make([]CampaignView, 0, len(res.Campaigns)),
		Details:      make(map[int]CampaignDetail, len(res.Campaigns)),
		TimelineKeys: make(map[int]string, len(res.Campaigns)),
	}
	priced := make([]*model.Campaign, 0, len(res.Campaigns))
	for _, live := range res.Campaigns {
		c := *live
		cp := profit.AnalyzeCampaignWith(&c, e.col.collect, e.cfg.QueryTime)
		d := detailOf(&c, cp)
		d.ID = c.ID
		ref.Campaigns = append(ref.Campaigns, d.CampaignView)
		ref.Details[c.ID] = d
		if key, ok := e.col.timelineKey(&c); ok {
			ref.TimelineKeys[c.ID] = key
		}
		priced = append(priced, &c)
	}
	sort.SliceStable(ref.Campaigns, func(i, j int) bool { return ref.Campaigns[i].XMR > ref.Campaigns[j].XMR })
	ref.Years = e.referenceYearStats(priced)
	return ref, e.view.Load()
}

// timelineKey resolves the stable component key a campaign's timeline is
// filed under: the first member hash the aggregator still maps.
func (c *collector) timelineKey(cam *model.Campaign) (string, bool) {
	for _, sha := range cam.Samples {
		if key, ok := c.agg.ComponentKey(sha); ok {
			return key, true
		}
	}
	for _, sha := range cam.Ancillaries {
		if key, ok := c.agg.ComponentKey(sha); ok {
			return key, true
		}
	}
	return "", false
}

// referenceYearStats recounts the yearly breakdown from a partition snapshot.
func (e *Engine) referenceYearStats(campaigns []*model.Campaign) []YearStats {
	newC, active := report.NewYearBuckets(), report.NewYearBuckets()
	for _, c := range campaigns {
		newC.Add(c.FirstSeen)
		if c.FirstSeen.IsZero() || c.LastSeen.Before(c.FirstSeen) {
			continue
		}
		for y := c.FirstSeen.Year(); y <= c.LastSeen.Year(); y++ {
			active.AddN(y, 1)
		}
	}
	samples := map[int]int64{}
	for _, yc := range e.ts.Years() {
		samples[yc.Year] = yc.Samples
	}
	yearSet := map[int]bool{}
	for y := range samples {
		yearSet[y] = true
	}
	for _, y := range newC.Years() {
		yearSet[y] = true
	}
	for _, y := range active.Years() {
		yearSet[y] = true
	}
	years := make([]int, 0, len(yearSet))
	for y := range yearSet {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearStats, 0, len(years))
	for _, y := range years {
		out = append(out, YearStats{
			Year:            y,
			Samples:         samples[y],
			NewCampaigns:    newC.Count(y),
			ActiveCampaigns: active.Count(y),
		})
	}
	return out
}

// SetCollect replaces the wallet-activity source all pricing flows through.
// Call it before the engine prices anything.
func (e *Engine) SetCollect(collect func(wallet string) profit.WalletActivity) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.col.collect = collect
}

// QueueProbeUpdate hands one probe completion to the collector goroutine
// through the prober's own input and returns without waiting; the returned
// function waits for the acknowledgement the prober's hook waits for. pre
// runs on the collector goroutine, under the collector mutex, just before the
// update is applied — so a test that serves activity through SetCollect can
// change what a wallet earns and tell the engine in one step, with no instant
// at which the engine could price the new figure without having been told.
// Like the update itself, pre is dropped once the collector has exited (the
// run is sealed or its context ended).
func (e *Engine) QueueProbeUpdate(u probe.Update, pre func()) (wait func()) {
	return e.queueProbe(u, pre)
}

// InjectProbeUpdate is QueueProbeUpdate followed by the wait: it delivers
// one probe completion the way the prober does.
func (e *Engine) InjectProbeUpdate(u probe.Update, pre func()) {
	e.QueueProbeUpdate(u, pre)()
}
