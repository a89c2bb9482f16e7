package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/report"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// reference generates the smokes' universe (the one streamd is started over)
// and its batch results, once per driver run.
var reference = sync.OnceValues(func() (*ecosim.Universe, *core.Results) {
	cfg := ecosim.DefaultConfig().Scale(0.12)
	cfg.Seed = 7
	u := ecosim.Generate(cfg)
	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		panic(err) // the batch pipeline over a generated universe has no failing input
	}
	return u, batch
})

// client returns an SDK client for the daemon at base.
func (e *env) client(base string) *client.Client {
	cl, err := client.New(base)
	if err != nil {
		e.fatalf("client: %v", err)
	}
	return cl
}

// resumedLine is the log line a daemon that recovered from its data
// directory writes.
const resumedLine = `resumed from [^,]*, [0-9]+ WAL entries replayed`

func resumeSmoke(e *env) {
	_, base := e.streamd()
	clean := e.drained(base)
	e.stopAll()
	var total apiv1.Results
	if err := json.Unmarshal(clean, &total); err != nil {
		e.fatalf("decode clean results: %v", err)
	}

	state := filepath.Join(e.dir, "resume-state")
	p, base := e.streamd("-data-dir", state, "-checkpoint-every", "1s", "-rate", "60")
	cl := e.client(base)
	var analyzed int64
	e.wait("a kill point mid-replay, past a checkpoint", func() bool {
		st, err := cl.Stats(context.Background())
		if err != nil {
			e.fatalf("stats: %v", err)
		}
		if analyzed = st.Analyzed; analyzed >= int64(total.Samples) {
			e.fatalf("the replay finished (%d analyzed) before a checkpoint and a WAL segment were on disk", analyzed)
		}
		return analyzed >= 100 && hasFile(state, "snap-") && hasFile(state, "wal-")
	})
	p.kill()
	fmt.Printf("SIGKILL at %d of %d samples\n", analyzed, total.Samples)

	p, base = e.streamd("-data-dir", state, "-checkpoint-every", "1s")
	resumed := e.drained(base)
	fmt.Println(e.logged(p, resumedLine))
	if !bytes.Equal(clean, resumed) {
		e.fatalf("resumed /api/v1/results differ from the clean run:\n%s\n%s", clean, resumed)
	}
}

func apiSmoke(e *env) {
	_, base := e.streamd("-no-feed")
	e.ingestAndDiff(base, false)
	if resp, _ := e.request(http.MethodGet, base+"/api/v1/results"); resp.StatusCode != http.StatusServiceUnavailable {
		e.fatalf("/api/v1/results while in flight: %s, want 503", resp.Status)
	}
}

func probeSmoke(e *env) {
	// One live poolserver per ledger of the universe, like the paper's pool
	// set: minergate opaque, minexmr with the historic hashrate series.
	u, _ := reference()
	endpoints := map[string]string{}
	for _, p := range u.Pools.Pools() {
		snap, err := p.MarshalSnapshot()
		if err != nil {
			e.fatalf("snapshot pool %s: %v", p.Name, err)
		}
		ledger := filepath.Join(e.dir, "ledger-"+p.Name+".json")
		if err := os.WriteFile(ledger, snap, 0o644); err != nil {
			e.fatalf("%v", err)
		}
		args := []string{"-name", p.Name, "-ledger", ledger, "-http", "127.0.0.1:0", "-stratum", "127.0.0.1:0"}
		switch p.Name {
		case "minergate":
			args = append(args, "-opaque")
		case "minexmr":
			args = append(args, "-historic-hashrate")
		}
		endpoints[p.Name] = e.logged(e.spawn("poolserver", args...), `stats:\s+(http://[0-9.:]+)/`)
	}
	for _, url := range endpoints {
		e.body(url + "/api/pool")
	}
	resp, _ := e.request(http.MethodPost, endpoints["minexmr"]+"/api/pool")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") == "" {
		e.fatalf("POST /api/pool: %s with Allow %q, want 405 naming the allowed methods", resp.Status, resp.Header.Get("Allow"))
	}
	fmt.Printf("%d pool servers up\n", len(endpoints))

	pools := filepath.Join(e.dir, "pools.json")
	raw, _ := json.Marshal(endpoints) // a map of strings always encodes
	if err := os.WriteFile(pools, raw, 0o644); err != nil {
		e.fatalf("%v", err)
	}
	_, base := e.streamd("-no-feed", "-probe-http", pools, "-probe-rate", "50", "-probe-workers", "8")
	e.ingestAndDiff(base, true)

	ps, err := e.client(base).ProbeStats(context.Background())
	if err != nil {
		e.fatalf("probe stats: %v", err)
	}
	var opaque, failed uint64
	for _, p := range ps.Pools {
		opaque += p.OpaquePool
		failed += p.Failed
	}
	// The opaque pool must have been classified, not retried to death, and
	// nothing may have exhausted its retries against healthy pools.
	if !ps.Converged || opaque == 0 || failed > 0 {
		e.fatalf("probe telemetry: converged=%v, %d opaque-pool classifications, %d failed fetches", ps.Converged, opaque, failed)
	}
}

func timeseriesSmoke(e *env) {
	state := filepath.Join(e.dir, "timeseries-state")
	paths := []string{
		"/api/v1/timeseries",
		"/api/v1/timeseries?resolution=1m",
		"/api/v1/timeseries?resolution=1h",
		"/api/v1/timeseries?resolution=1d",
		"/api/v1/campaigns/1/timeline",
	}
	p, base := e.streamd("-data-dir", state, "-checkpoint-every", "1s")
	e.drained(base)
	before := e.bodies(base, paths)
	e.logged(p, "yearly evolution")
	p.kill()
	if !hasFile(state, "snap-") {
		e.fatalf("no checkpoint on disk after the drain")
	}

	p, base = e.streamd("-data-dir", state, "-checkpoint-every", "1s")
	e.drained(base)
	e.sameBodies("across SIGKILL and recovery", paths, before, e.bodies(base, paths))
	e.logged(p, resumedLine)

	// The series carry data: not trivially-equal empty bodies.
	for _, c := range []struct {
		body int
		want string
	}{{0, `"name": "samples"`}, {0, `"years":`}, {4, `"count":`}} {
		if !bytes.Contains(before[c.body], []byte(c.want)) {
			e.fatalf("%s carries no %s:\n%s", paths[c.body], c.want, before[c.body])
		}
	}
}

func metricsSmoke(e *env) {
	p, base := e.streamd("-metrics-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-log-format", "json", "-log-level", "info")
	e.drained(base)

	exp, err := parseExposition(string(e.body(base + "/metrics")))
	if err == nil {
		err = exp.check()
	}
	if err != nil {
		e.fatalf("/metrics: %v", err)
	}
	fmt.Printf("exposition: %d families, %d series, histograms consistent\n", len(exp.types), len(exp.series))

	// The run is drained, so the stage histograms and StageStats are stable.
	st, err := e.client(base).Stats(context.Background())
	if err != nil || len(st.Stages) == 0 {
		e.fatalf("stats: %d stages, err %v", len(st.Stages), err)
	}
	for _, s := range st.Stages {
		key := fmt.Sprintf(`stream_stage_duration_seconds_count{stage="%s"}`, s.Name)
		if got, ok := exp.series[key]; !ok || int64(got) != s.Processed {
			e.fatalf("stage %q: /metrics count %v (present %v) != StageStats processed %d", s.Name, got, ok, s.Processed)
		}
	}

	// Request IDs: assigned, a client's honoured, repeated in error envelopes.
	if resp, _ := e.request(http.MethodGet, base+"/api/v1/healthz"); resp.Header.Get("X-Request-ID") == "" {
		e.fatalf("healthz response carries no X-Request-ID")
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/campaigns/999999", nil) // a constant, valid URL
	req.Header.Set("X-Request-ID", "smoke-test-1")
	resp, body := e.do(req)
	var envelope apiv1.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil {
		e.fatalf("decode error envelope: %v", err)
	}
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("X-Request-ID") != "smoke-test-1" || envelope.Error.RequestID != "smoke-test-1" {
		e.fatalf("campaigns/999999: %s, header ID %q, envelope ID %q; want 404 and smoke-test-1 twice",
			resp.Status, resp.Header.Get("X-Request-ID"), envelope.Error.RequestID)
	}

	// The side listeners.
	aux := e.body(e.logged(p, upAddr("metrics exposition up")) + "/metrics")
	if !bytes.Contains(aux, []byte("# TYPE stream_stage_duration_seconds histogram")) {
		e.fatalf("-metrics-addr listener is not serving the exposition")
	}
	debug := e.logged(p, upAddr("pprof debug surface up"))
	e.body(debug + "/debug/pprof/")
	if !bytes.Contains(e.body(debug+"/debug/pprof/goroutine?debug=1"), []byte("goroutine profile")) {
		e.fatalf("goroutine profile empty")
	}

	// The logs are JSON records scoped to a component.
	lines := strings.Split(strings.TrimSpace(p.log.String()), "\n")
	for _, line := range lines[:min(5, len(lines))] {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec["msg"] == nil || rec["level"] == nil {
			e.fatalf("log line is not a JSON record with msg and level: %q", line)
		}
	}
	if !strings.Contains(p.log.String(), `"component":"streamd"`) {
		e.fatalf("no component-scoped log records")
	}
}

func scenarioSmoke(e *env) {
	_, base := e.streamd()
	e.drained(base)
	paths := []string{"/api/v1/results", "/api/v1/campaigns", "/api/v1/timeseries"}
	before := e.bodies(base, paths)

	doc := filepath.Join(e.dir, "scenario.json")
	if err := os.WriteFile(doc, []byte(`{
  "name": "smoke-pool-ban",
  "description": "every pool cooperates and bans every reported wallet",
  "interventions": [{
    "kind": "pool_ban",
    "at": "2014-01-01T00:00:00Z",
    "cooperation": {"*": {"cooperative": true, "min_ips_to_ban": 1}}
  }]
}`), 0o644); err != nil {
		e.fatalf("%v", err)
	}
	var d apiv1.ScenarioDelta
	if err := json.Unmarshal(e.run("scenarioctl", "-addr", base, "-doc", doc, "-wait"), &d); err != nil {
		e.fatalf("decode scenarioctl output: %v", err)
	}
	switch {
	case d.Baseline.XMR <= 0:
		e.fatalf("baseline priced no XMR")
	case d.Scenario.XMR >= d.Baseline.XMR:
		e.fatalf("scenario did not reduce earnings: %v vs %v", d.Scenario.XMR, d.Baseline.XMR)
	case len(d.Campaigns) == 0 || d.Campaigns[0].DeltaXMR >= 0:
		e.fatalf("no per-campaign reduction leads the delta: %+v", d.Campaigns)
	case len(d.Applied) == 0 || len(d.Applied[0].Outcomes) == 0:
		e.fatalf("no intervention audit trail")
	}
	fmt.Printf("baseline %.1f XMR -> scenario %.1f XMR, %d campaigns changed\n", d.Baseline.XMR, d.Scenario.XMR, len(d.Campaigns))

	e.sameBodies("across the scenario replay (the shadow leaked into the live engine)", paths, before, e.bodies(base, paths))
	if !bytes.Contains(e.run("scenarioctl", "-addr", base, "-list"), []byte(`"state": "done"`)) {
		e.fatalf("the job listing does not serve the finished run")
	}
}

// The load scenario's fleet: what CI has always run.
const (
	loadClients  = 2000
	loadDuration = 10 * time.Second
)

func loadSmoke(e *env) {
	_, base := e.streamd("-no-feed", "-api-rate", "50", "-api-burst", "100")

	// One transport for the whole fleet: the point is concurrency at the
	// request level, not one socket per logical client.
	hc := &http.Client{Transport: &http.Transport{MaxIdleConns: 512, MaxIdleConnsPerHost: 512, MaxConnsPerHost: 512}}
	ctx, cancel := context.WithTimeout(context.Background(), loadDuration)
	defer cancel()
	var requests, notModified, throttled, serverErrors, transportErrors atomic.Int64
	var wg sync.WaitGroup
	for id := 0; id < loadClients; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.New(base, client.WithHTTPClient(hc))
			if err != nil {
				transportErrors.Add(1)
				return
			}
			// A polling dashboard: conditional listings that reuse the last
			// validator, with stats polls and detail fetches mixed in.
			etag := ""
			for n := 0; ctx.Err() == nil; n++ {
				var err error
				var unchanged bool
				switch n % 8 {
				case 5:
					_, err = cl.Stats(ctx)
				case 7:
					_, _, unchanged, err = cl.CampaignConditional(ctx, 1+id%16, "")
				default:
					var tag string
					if _, tag, unchanged, err = cl.CampaignsConditional(ctx, client.CampaignQuery{}, etag); err == nil && tag != "" {
						etag = tag
					}
				}
				if err != nil && ctx.Err() != nil {
					return // the run ended under this request
				}
				requests.Add(1)
				var ae *client.APIError
				switch {
				case unchanged:
					notModified.Add(1)
				case err == nil:
				case !errors.As(err, &ae):
					transportErrors.Add(1)
				case ae.StatusCode == http.StatusTooManyRequests:
					throttled.Add(1)
				case ae.StatusCode >= 500:
					serverErrors.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("%d clients, %v: %d requests, %d x 304, %d x 429, %d x 5xx, %d transport errors\n", loadClients, loadDuration,
		requests.Load(), notModified.Load(), throttled.Load(), serverErrors.Load(), transportErrors.Load())
	if serverErrors.Load() > 0 || transportErrors.Load() > 0 || notModified.Load() == 0 || throttled.Load() == 0 {
		e.fatalf("load gates: want no 5xx, no transport error, and both 304 and 429 answers")
	}
}

// ingestAndDiff drives a -no-feed daemon through the public surface only: it
// uploads the shuffled corpus through the SDK (bulk NDJSON), waits for the
// engine to absorb it and the probe crawl to converge, and diffs the campaign
// listing, ten detail views and a re-rendered Table VIII against the batch
// pipeline. With finish it also seals the run and requires the final summary
// to be byte-identical to the batch one.
func (e *env) ingestAndDiff(base string, finish bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	u, batch := reference()
	cl := e.client(base)
	if err := cl.Healthz(ctx); err != nil {
		e.fatalf("daemon not healthy at %s: %v", base, err)
	}

	// A different order than both the batch run and streamd's own feed.
	hashes := u.Corpus.Hashes()
	rand.New(rand.NewSource(8)).Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	var wire []apiv1.Sample
	for _, h := range hashes {
		if s, ok := u.Corpus.Get(h); ok {
			wire = append(wire, api.SampleToWire(s))
		}
	}
	for start := 0; start < len(wire); start += 250 {
		end := min(start+250, len(wire))
		if res, err := cl.SubmitSamples(ctx, wire[start:end]); err != nil || res.Accepted != end-start {
			e.fatalf("bulk upload [%d:%d]: accepted %d, err %v", start, end, res.Accepted, err)
		}
	}
	e.wait("the engine to absorb the corpus", func() bool {
		st, err := cl.Stats(ctx)
		if err != nil {
			e.fatalf("stats: %v", err)
		}
		return st.Analyzed+st.Duplicates >= int64(len(wire)) && st.Backpressure == 0
	})
	// Live pricing reads the probe cache, which matches the batch figures
	// only once every sighted wallet has been probed.
	e.wait("the probe crawl to converge", func() bool {
		ps, err := cl.ProbeStats(ctx)
		if err != nil {
			e.fatalf("probe stats: %v", err)
		}
		return ps.Converged
	})

	page, err := cl.Campaigns(ctx, client.CampaignQuery{})
	if err != nil {
		e.fatalf("campaigns: %v", err)
	}
	want := api.ViewsFromResults(batch)
	if page.Total != len(want) {
		e.fatalf("campaign count: API %d, batch %d", page.Total, len(want))
	}
	for i := range want {
		g, _ := json.Marshal(page.Campaigns[i]) // wire structs always encode
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			e.fatalf("campaign %d differs:\nAPI:   %s\nbatch: %s", i, g, w)
		}
	}

	byID := map[int]*model.Campaign{}
	for _, c := range batch.Campaigns {
		byID[c.ID] = c
	}
	details := map[int]apiv1.CampaignDetail{}
	for _, v := range page.Campaigns[:min(10, len(page.Campaigns))] {
		d, err := cl.Campaign(ctx, v.ID)
		if err != nil {
			e.fatalf("campaign %d detail: %v", v.ID, err)
		}
		c := byID[v.ID]
		if c == nil || !reflect.DeepEqual(d.Wallets, c.Wallets) ||
			len(d.SampleHashes) != len(c.Samples) || len(d.AncillaryHashes) != len(c.Ancillaries) ||
			d.XMR != c.XMRMined || d.USD != c.USDEarned ||
			!d.FirstSeen.Equal(c.FirstSeen) || !d.LastSeen.Equal(c.LastSeen) {
			e.fatalf("campaign %d detail differs from batch:\nAPI:   %+v\nbatch: %+v", v.ID, d, c)
		}
		details[v.ID] = d
	}
	fmt.Printf("%d campaigns bit-identical to the batch pipeline, %d detail views agree\n", page.Total, len(details))

	var table8 string
	for _, a := range core.Artefacts(u, batch) {
		if a.Name == "Table8TopCampaigns" {
			table8 = a.Render()
		}
	}
	if got := renderTable8(page, details); table8 == "" || got != table8 {
		e.fatalf("Table VIII rendered from the API differs from core.Artefacts:\n--- API ---\n%s\n--- batch ---\n%s", got, table8)
	}
	fmt.Println("Table VIII re-rendered from the API byte-identical to core.Artefacts")

	if finish {
		sealed, err := cl.Finish(ctx)
		if err != nil {
			e.fatalf("finish: %v", err)
		}
		served, err := cl.Results(ctx)
		if err != nil {
			e.fatalf("results after finish: %v", err)
		}
		if w := api.ResultsToWire(batch); sealed != w || served != w {
			e.fatalf("final results differ from batch:\nfinish:  %+v\nresults: %+v\nbatch:   %+v", sealed, served, w)
		}
		fmt.Println("sealed results identical to the batch summary")
	}
}

// renderTable8 rebuilds core.TopCampaignsTable's output from API data only:
// the earnings-sorted listing plus the detail views of its first ten.
func renderTable8(page apiv1.CampaignPage, details map[int]apiv1.CampaignDetail) string {
	t := report.NewTable("Table VIII — top 10 campaigns by XMR mined",
		"Campaign", "#S", "#W", "Period", "XMR", "USD")
	var allXMR, allUSD, totXMR, totUSD float64
	var earners, totS, totW, rows int
	for _, c := range page.Campaigns {
		if c.XMR <= 0 {
			break
		}
		// The listing is earnings-sorted, so these sums run in the same
		// order as the batch pipeline's profit totals — bit-identical.
		earners++
		allXMR += c.XMR
		allUSD += c.USD
		if rows == 10 {
			continue
		}
		d := details[c.ID]
		period := fmt.Sprintf("%s to %s", d.FirstSeen.Format("01/06"), d.LastSeen.Format("01/06"))
		if c.Active {
			period = fmt.Sprintf("%s to active*", d.FirstSeen.Format("01/06"))
		}
		t.AddRow(fmt.Sprintf("C#%d", c.ID), fmt.Sprintf("%d", c.Samples), fmt.Sprintf("%d", len(c.Wallets)),
			period, model.FormatXMR(c.XMR), model.FormatUSD(c.USD))
		totXMR += c.XMR
		totUSD += c.USD
		totS += c.Samples
		totW += len(c.Wallets)
		rows++
	}
	t.AddRow(fmt.Sprintf("TOP-%d", rows), fmt.Sprintf("%d", totS), fmt.Sprintf("%d", totW), "",
		model.FormatXMR(totXMR), model.FormatUSD(totUSD))
	t.AddRow(fmt.Sprintf("ALL-%d", earners), "", "", "",
		model.FormatXMR(allXMR), model.FormatUSD(allUSD))
	return t.String()
}
