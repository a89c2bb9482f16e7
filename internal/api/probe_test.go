package api_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/probe"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

// newProbeDaemon builds a live engine wired to a DirectorySource prober and
// an API server exposing it, including a Finish hook.
func newProbeDaemon(t *testing.T) (*testDaemon, *probe.Scheduler) {
	t.Helper()
	u := testUniverse()
	scfg := core.NewFromUniverse(u).StreamConfig()
	scfg.Shards = 4
	prober := probe.New(probe.Config{
		Source:  probe.NewDirectorySource(scfg.Pools, scfg.QueryTime),
		Workers: 4,
	})
	scfg.Prober = prober
	d := &testDaemon{u: u}
	d.eng = stream.New(scfg)
	ctx := context.Background()
	d.eng.Start(ctx)
	prober.Start(ctx)
	t.Cleanup(prober.Close)

	cfg := api.Config{
		Engine: d.eng,
		Probe:  prober,
		Finish: d.eng.Finish,
	}
	d.ts = httptest.NewServer(api.New(cfg).Handler())
	t.Cleanup(d.ts.Close)
	return d, prober
}

func probeGet(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func probePost(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// TestProbeEndpointsDisabled: without a prober (or Finish hook) the probe
// surface answers 409 with stable codes.
func TestProbeEndpointsDisabled(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	for _, c := range []struct {
		method, path, code string
	}{
		{http.MethodGet, "/api/v1/probe", apiv1.CodeProbeDisabled},
		{http.MethodPost, "/api/v1/probe/refresh?scope=stale", apiv1.CodeProbeDisabled},
		{http.MethodPost, "/api/v1/finish", apiv1.CodeFinishUnavailable},
	} {
		req, _ := http.NewRequest(c.method, d.ts.URL+c.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env apiv1.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict || env.Error.Code != c.code {
			t.Fatalf("%s %s -> %d %q, want 409 %q", c.method, c.path, resp.StatusCode, env.Error.Code, c.code)
		}
	}
}

// TestProbeStatsRefreshAndFinish drives the full probe surface over HTTP:
// stats shape, refresh selectors and validation, method guards, and the
// finish flow feeding /api/v1/results.
func TestProbeStatsRefreshAndFinish(t *testing.T) {
	d, prober := newProbeDaemon(t)
	d.ingestAll(t)

	// /results is pending until finish.
	resp := probeGet(t, d.ts.URL+"/api/v1/results", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("results before finish -> %d, want 503", resp.StatusCode)
	}

	// Finish drains, waits for probe convergence, and returns the summary.
	var finRes apiv1.Results
	if resp := probePost(t, d.ts.URL+"/api/v1/finish", &finRes); resp.StatusCode != http.StatusOK {
		t.Fatalf("finish -> %d", resp.StatusCode)
	}
	if finRes.Samples == 0 || finRes.Campaigns == 0 {
		t.Fatalf("finish returned an empty summary: %+v", finRes)
	}
	// Finish guarantees cache coverage; the crawl itself drains moments
	// later.
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := prober.WaitConverged(wctx); err != nil {
		t.Fatalf("crawl never drained after finish: %v", err)
	}

	// /results now serves the same body.
	var res apiv1.Results
	if resp := probeGet(t, d.ts.URL+"/api/v1/results", &res); resp.StatusCode != http.StatusOK {
		t.Fatalf("results after finish -> %d", resp.StatusCode)
	}
	if res != finRes {
		t.Fatalf("results %+v != finish response %+v", res, finRes)
	}

	// Probe stats reflect a converged crawl over the directory pools.
	var ps apiv1.ProbeStats
	if resp := probeGet(t, d.ts.URL+"/api/v1/probe", &ps); resp.StatusCode != http.StatusOK {
		t.Fatalf("probe stats -> %d", resp.StatusCode)
	}
	if !ps.Converged || ps.CacheSize == 0 || ps.Completed == 0 {
		t.Fatalf("unexpected probe stats: %+v", ps)
	}
	if len(ps.Pools) == 0 {
		t.Fatal("no per-pool telemetry")
	}
	var requests uint64
	for _, pc := range ps.Pools {
		requests += pc.Requests
	}
	if requests == 0 {
		t.Fatal("no requests counted")
	}
	total := 0
	for _, b := range ps.CacheAges {
		total += b.Count
	}
	if total != ps.CacheSize {
		t.Fatalf("age buckets cover %d entries, cache has %d", total, ps.CacheSize)
	}

	// Refresh validation: missing and conflicting selectors are 400.
	for _, q := range []string{"", "wallet=w&scope=all", "scope=nonsense"} {
		resp := probePost(t, d.ts.URL+"/api/v1/probe/refresh?"+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("refresh %q -> %d, want 400", q, resp.StatusCode)
		}
	}

	// scope=stale on a fresh, TTL-less cache requeues nothing.
	var pr apiv1.ProbeRefresh
	probePost(t, d.ts.URL+"/api/v1/probe/refresh?scope=stale", &pr)
	if pr.Requeued != 0 {
		t.Fatalf("stale refresh requeued %d entries on a fresh cache", pr.Requeued)
	}
	// A wallet refresh schedules exactly one probe.
	wallet := ""
	for _, e := range prober.ExportCache().Entries {
		wallet = e.Wallet
		break
	}
	if wallet == "" {
		t.Fatal("no cached wallets")
	}
	probePost(t, d.ts.URL+"/api/v1/probe/refresh?wallet="+url.QueryEscape(wallet), &pr)
	if pr.Requeued != 1 {
		t.Fatalf("wallet refresh requeued %d, want 1", pr.Requeued)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !prober.Converged() {
		if time.Now().After(deadline) {
			t.Fatal("refresh probe never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Method guards: wrong methods answer 405 with Allow.
	for path, allow := range map[string]string{
		"/api/v1/probe":         "GET",
		"/api/v1/probe/refresh": "POST",
		"/api/v1/finish":        "POST",
	} {
		method := http.MethodPost
		if allow == "POST" {
			method = http.MethodGet
		}
		req, _ := http.NewRequest(method, d.ts.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s -> %d, want 405", method, path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); !strings.Contains(got, allow) {
			t.Fatalf("%s Allow = %q, want %q listed", path, got, allow)
		}
	}
}
