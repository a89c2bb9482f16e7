package api_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/obs"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

// testUniverse generates the shared corpus once; engines treat samples as
// read-only, so tests can share it.
var testUniverse = sync.OnceValue(func() *ecosim.Universe {
	return ecosim.Generate(ecosim.SmallConfig().Scale(0.3))
})

// testDaemon is a live engine + API server over a small universe.
type testDaemon struct {
	u   *ecosim.Universe
	eng *stream.Engine
	ts  *httptest.Server
}

func newTestDaemon(t *testing.T, cfg api.Config) *testDaemon {
	t.Helper()
	d := &testDaemon{u: testUniverse()}
	scfg := core.NewFromUniverse(d.u).StreamConfig()
	scfg.Shards = 4
	d.eng = stream.New(scfg)
	d.eng.Start(context.Background())

	cfg.Engine, cfg.Submit = d.eng, d.eng.Submit
	d.ts = httptest.NewServer(api.New(cfg).Handler())
	t.Cleanup(d.ts.Close)
	return d
}

// ingestAll submits the whole corpus directly into the engine.
func (d *testDaemon) ingestAll(t *testing.T) {
	t.Helper()
	ctx := context.Background()
	for _, h := range d.u.Corpus.Hashes() {
		s, _ := d.u.Corpus.Get(h)
		if err := d.eng.Submit(ctx, s); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
}

func (d *testDaemon) finish(t *testing.T) *stream.Results {
	t.Helper()
	res, err := d.eng.Finish(context.Background())
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	return res
}

func decodeEnvelope(t *testing.T, resp *http.Response) apiv1.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	if env.Error.Code == "" {
		t.Fatalf("error envelope has no code")
	}
	return env
}

// TestMethodGuards sends one disallowed method to every route: each answers
// the 405 envelope with the route's Allow list.
func TestMethodGuards(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	cases := []struct {
		method, path, wantAllow string
	}{
		{http.MethodPost, "/api/v1/stats", "GET, HEAD"},
		{http.MethodDelete, "/api/v1/campaigns", "GET, HEAD"},
		{http.MethodPut, "/api/v1/campaigns/1", "GET, HEAD"},
		{http.MethodPost, "/api/v1/campaigns/1/timeline", "GET, HEAD"},
		{http.MethodPost, "/api/v1/timeseries", "GET, HEAD"},
		{http.MethodPost, "/api/v1/results", "GET, HEAD"},
		{http.MethodGet, "/api/v1/checkpoint", "POST"},
		{http.MethodGet, "/api/v1/samples", "POST"},
		{http.MethodPost, "/api/v1/healthz", "GET, HEAD"},
		{http.MethodPost, "/api/v1/events", "GET, HEAD"},
		{http.MethodPost, "/api/v1/probe", "GET, HEAD"},
		{http.MethodGet, "/api/v1/probe/refresh", "POST"},
		{http.MethodGet, "/api/v1/finish", "POST"},
		{http.MethodDelete, "/api/v1/scenarios", "GET, POST, HEAD"},
		{http.MethodDelete, "/api/v1/scenarios/sc-1", "GET, HEAD"},
		{http.MethodPost, "/api/v1/scenarios/sc-1/delta", "GET, HEAD"},
	}
	for _, tc := range cases {
		what := tc.method + " " + tc.path
		req, _ := http.NewRequest(tc.method, d.ts.URL+tc.path, nil)
		resp, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := resp.Header.Get("Allow"); got != tc.wantAllow {
			t.Errorf("%s: Allow %q, want %q", what, got, tc.wantAllow)
		}
		requireEnvelope(t, what, resp, http.StatusMethodNotAllowed, apiv1.CodeMethodNotAllowed)
	}
}

func TestResultsPending503(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	resp, err := http.Get(d.ts.URL + "/api/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeResultsPending {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func TestCheckpointDisabled409(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	resp, err := http.Post(d.ts.URL+"/api/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodePersistenceDisabled {
		t.Fatalf("code %q", env.Error.Code)
	}
}

// TestUnversionedRoutesAre404 pins that the historical unversioned aliases
// are gone: each answers the uniform 404 envelope, whatever the method.
func TestUnversionedRoutesAre404(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/stats"},
		{http.MethodGet, "/campaigns"},
		{http.MethodGet, "/campaigns?n=3"},
		{http.MethodGet, "/results"},
		{http.MethodPost, "/checkpoint"},
		{http.MethodGet, "/healthz"},
	} {
		req, _ := http.NewRequest(tc.method, d.ts.URL+tc.path, nil)
		resp, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s: status %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeNotFound {
			t.Fatalf("%s %s: code %q", tc.method, tc.path, env.Error.Code)
		}
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("GET %s: Content-Type %q", url, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func TestSampleValidation(t *testing.T) {
	d := newTestDaemon(t, api.Config{})

	post := func(ctype, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(d.ts.URL+"/api/v1/samples", ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Malformed single JSON.
	resp := post("application/json", "{nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)

	// A sample with neither hash nor content.
	resp = post("application/json", `{"md5":"abc"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty sample: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)

	// A bad hash.
	resp = post("application/json", `{"sha256":"xyz"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad hash: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)

	// Bulk NDJSON with a malformed second line names the line and the
	// partially applied prefix.
	good := `{"content":"` + "aGVsbG8=" + `"}`
	resp = post("application/x-ndjson", good+"\n{nope\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad bulk line: status %d", resp.StatusCode)
	}
	env := decodeEnvelope(t, resp)
	if !strings.Contains(env.Error.Message, "line 2") || !strings.Contains(env.Error.Message, "1 samples already accepted") {
		t.Fatalf("bulk error message %q", env.Error.Message)
	}

	// An NDJSON body posted as application/json must be rejected, not
	// silently truncated to its first sample.
	resp = post("application/json", good+"\n"+good+"\n")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("multi-value JSON body: status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); !strings.Contains(env.Error.Message, "x-ndjson") {
		t.Fatalf("multi-value error message %q", env.Error.Message)
	}

	// Unknown endpoints use the envelope too.
	resp, err := http.Get(d.ts.URL + "/api/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)
}

func TestSamplesAfterFinish409(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)
	resp, err := http.Post(d.ts.URL+"/api/v1/samples", "application/json",
		strings.NewReader(`{"content":"aGVsbG8="}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("submit after finish: status %d, want 409", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeIngestClosed {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func TestCampaignDetailAndPagination(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	var page apiv1.CampaignPage
	getJSON(t, d.ts.URL+"/api/v1/campaigns", &page)
	if page.Total == 0 || len(page.Campaigns) != page.Total {
		t.Fatalf("default listing: total=%d len=%d", page.Total, len(page.Campaigns))
	}

	// Detail round-trip for the top campaign.
	top := page.Campaigns[0]
	var detail apiv1.CampaignDetail
	getJSON(t, d.ts.URL+"/api/v1/campaigns/"+strconv.Itoa(top.ID), &detail)
	if detail.ID != top.ID || detail.XMR != top.XMR {
		t.Fatalf("detail mismatch: %+v vs %+v", detail.Campaign, top)
	}
	if len(detail.SampleHashes) != top.Samples {
		t.Fatalf("detail sample hashes %d != summary count %d", len(detail.SampleHashes), top.Samples)
	}
	if detail.FirstSeen.IsZero() || detail.LastSeen.Before(detail.FirstSeen) {
		t.Fatalf("detail period broken: %v..%v", detail.FirstSeen, detail.LastSeen)
	}
	if top.XMR > 0 && detail.Payments == 0 {
		t.Fatalf("earning campaign without payment breakdown")
	}

	// Unknown and malformed ids.
	resp, _ := http.Get(d.ts.URL + "/api/v1/campaigns/999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeNotFound {
		t.Fatalf("code %q", env.Error.Code)
	}
	resp, _ = http.Get(d.ts.URL + "/api/v1/campaigns/abc")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", resp.StatusCode)
	}
	decodeEnvelope(t, resp)

	// Bad query parameters.
	for _, q := range []string{"limit=-1", "limit=x", "min_xmr=abc", "min_xmr=-1", "cursor=nope"} {
		resp, _ := http.Get(d.ts.URL + "/api/v1/campaigns?" + q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: status %d, want 400", q, resp.StatusCode)
		}
		decodeEnvelope(t, resp)
	}

	// A raw offset is refused, and the message names its replacement: a
	// silently ignored offset would serve an old client page one for ever.
	for _, q := range []string{"offset=2", "offset=0", "offset=", "limit=2&offset=2"} {
		resp, _ := http.Get(d.ts.URL + "/api/v1/campaigns?" + q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: status %d, want 400", q, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeBadRequest || !strings.Contains(env.Error.Message, "cursor") {
			t.Fatalf("?%s: envelope %+v does not name cursor", q, env.Error)
		}
	}
}

func TestEventsSSE(t *testing.T) {
	d := newTestDaemon(t, api.Config{})

	req, _ := http.NewRequest(http.MethodGet, d.ts.URL+"/api/v1/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := d.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type %q", ct)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.ingestAll(t)
		d.finish(t)
	}()

	// The SSE frames must carry event names and JSON-decodable data lines,
	// ending with the drained event.
	sawKept, sawDrained := false, false
	sc := newLineScanner(resp.Body)
	var lastEvent string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			lastEvent = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev apiv1.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Errorf("decode SSE data: %v", err)
				return
			}
			if ev.Type != lastEvent {
				t.Errorf("event name %q != payload type %q", lastEvent, ev.Type)
				return
			}
			switch ev.Type {
			case apiv1.EventSampleKept:
				sawKept = true
			case apiv1.EventDrained:
				sawDrained = true
			}
		}
		if sawDrained {
			break
		}
	}
	<-done
	if !sawKept || !sawDrained {
		t.Fatalf("sawKept=%v sawDrained=%v", sawKept, sawDrained)
	}
}

// TestEventsHEAD checks a HEAD probe of the stream endpoint answers
// immediately instead of hanging on a never-ending subscription.
func TestEventsHEAD(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	resp, err := http.Head(d.ts.URL + "/api/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Fatalf("Content-Type %q", ct)
	}
}

func TestPanicRecovery(t *testing.T) {
	// A server with no engine panics in the stats handler; the middleware
	// must convert that into a logged 500 envelope.
	srv := api.New(api.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeInternal {
		t.Fatalf("code %q", env.Error.Code)
	}
}

func newLineScanner(r io.Reader) *lineScanner { return &lineScanner{r: r} }

// lineScanner is a minimal line reader that does not buffer past the current
// line, so it can follow a live SSE stream.
type lineScanner struct {
	r    io.Reader
	line []byte
	err  error
}

func (s *lineScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	s.line = s.line[:0]
	var one [1]byte
	for {
		n, err := s.r.Read(one[:])
		if n > 0 {
			if one[0] == '\n' {
				return true
			}
			s.line = append(s.line, one[0])
		}
		if err != nil {
			s.err = err
			return len(s.line) > 0
		}
	}
}

func (s *lineScanner) Text() string { return string(s.line) }

// TestRequestIDValidation: client-supplied correlation IDs are echoed only
// when drawn from the safe charset; anything else (injection attempts, over
// length) is replaced with a server-minted ID.
func TestRequestIDValidation(t *testing.T) {
	srv := api.New(api.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	send := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/v1/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(api.RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.Header.Get(api.RequestIDHeader)
	}

	if got := send("trace-41.A_z"); got != "trace-41.A_z" {
		t.Fatalf("valid ID not echoed: got %q", got)
	}
	for _, bad := range []string{
		`evil"id`, "sp ace", "semi;colon", "curly{}", strings.Repeat("a", 129),
	} {
		if got := send(bad); got == bad || got == "" {
			t.Fatalf("unsafe ID %q echoed as %q, want server-minted replacement", bad, got)
		}
	}
}

// TestPanicKeepsInflightGauge: a handler panic must still decrement the
// inflight gauge and record the request (recoverPanics wraps outside the
// instrumentation, so only a deferred decrement survives the unwind).
func TestPanicKeepsInflightGauge(t *testing.T) {
	reg := obs.NewRegistry()
	// No engine: /api/v1/stats panics on the nil engine, recovered to a 500.
	srv := api.New(api.Config{Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "\napi_inflight_requests 0\n") {
		t.Fatalf("inflight gauge leaked after panics:\n%s", text)
	}
	want := `api_requests_total{method="GET",route="/api/v1/stats",status="500"} 3`
	if !strings.Contains(text, want) {
		t.Fatalf("panicked requests not counted (want %q):\n%s", want, text)
	}
}
