package api_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/model"
	"cryptomining/internal/probe"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

// requireEnvelope asserts resp is the uniform error envelope: the wanted
// status and code, a JSON content type, the echoed request ID, and an Allow
// header on every 405.
func requireEnvelope(t *testing.T, what string, resp *http.Response, status int, code string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Errorf("%s: status %d, want %d", what, resp.StatusCode, status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		return
	}
	var env apiv1.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Errorf("%s: decode error envelope: %v", what, err)
		return
	}
	if env.Error.Code != code {
		t.Errorf("%s: code %q, want %q", what, env.Error.Code, code)
	}
	if env.Error.RequestID == "" {
		t.Errorf("%s: envelope has no request_id", what)
	}
	if status == http.StatusMethodNotAllowed && resp.Header.Get("Allow") == "" {
		t.Errorf("%s: 405 without an Allow header", what)
	}
}

// TestErrorEnvelopes sends one failing request per route and error status
// (400/404/409/503; the 405s are TestMethodGuards' rows) and requires the
// uniform envelope on every one. Two daemons cover them: "bare" runs with no
// optional subsystem (the 409s) and a submit hook that fails by content,
// "full" has a prober and a scenario manager whose one job is parked mid-run.
func TestErrorEnvelopes(t *testing.T) {
	bare, full := newBareDaemon(t), newFullDaemon(t)
	busy := `{"content":"` + "YnVzeQ==" + `"}`   // "busy"
	closed := `{"content":"` + "Y2xvc2Vk" + `"}` // "closed"
	powFork := `{"interventions":[{"kind":"pow_fork","at":"2018-06-01T00:00:00Z"}]}`
	rows := []struct {
		srv          *httptest.Server
		method, path string
		body         string
		status       int
		code         string
	}{
		{bare, "GET", "/api/v1/nope", "", 404, apiv1.CodeNotFound},
		{bare, "GET", "/api/v1/campaigns?limit=x", "", 400, apiv1.CodeBadRequest},
		{bare, "GET", "/api/v1/campaigns/abc", "", 400, apiv1.CodeBadRequest},
		{bare, "GET", "/api/v1/campaigns/999999", "", 404, apiv1.CodeNotFound},
		{bare, "GET", "/api/v1/campaigns/abc/timeline", "", 400, apiv1.CodeBadRequest},
		{bare, "GET", "/api/v1/campaigns/1/timeline", "", 409, apiv1.CodeTimeseriesDisabled},
		{full, "GET", "/api/v1/campaigns/999999/timeline", "", 404, apiv1.CodeNotFound},
		{bare, "GET", "/api/v1/timeseries?resolution=x", "", 400, apiv1.CodeBadRequest},
		{bare, "GET", "/api/v1/timeseries", "", 409, apiv1.CodeTimeseriesDisabled},
		{bare, "GET", "/api/v1/results", "", 503, apiv1.CodeResultsPending},
		{bare, "POST", "/api/v1/checkpoint", "", 409, apiv1.CodePersistenceDisabled},
		{bare, "POST", "/api/v1/samples", "{nope", 400, apiv1.CodeBadRequest},
		{bare, "POST", "/api/v1/samples", closed, 409, apiv1.CodeIngestClosed},
		{bare, "POST", "/api/v1/samples", busy, 503, apiv1.CodeBackpressure},
		{bare, "GET", "/api/v1/probe", "", 409, apiv1.CodeProbeDisabled},
		{bare, "POST", "/api/v1/probe/refresh?scope=all", "", 409, apiv1.CodeProbeDisabled},
		{full, "POST", "/api/v1/probe/refresh", "", 400, apiv1.CodeBadRequest},
		{bare, "POST", "/api/v1/finish", "", 409, apiv1.CodeFinishUnavailable},
		{bare, "GET", "/api/v1/scenarios", "", 409, apiv1.CodeScenarioDisabled},
		{full, "POST", "/api/v1/scenarios", "{nope", 400, apiv1.CodeBadRequest},
		{full, "POST", "/api/v1/scenarios", powFork, 503, apiv1.CodeScenarioCapacity},
		{bare, "GET", "/api/v1/scenarios/sc-1", "", 409, apiv1.CodeScenarioDisabled},
		{full, "GET", "/api/v1/scenarios/sc-404", "", 404, apiv1.CodeNotFound},
		{bare, "GET", "/api/v1/scenarios/sc-1/delta", "", 409, apiv1.CodeScenarioDisabled},
		{full, "GET", "/api/v1/scenarios/sc-404/delta", "", 404, apiv1.CodeNotFound},
		{full, "GET", "/api/v1/scenarios/sc-1/delta", "", 503, apiv1.CodeScenarioPending},
	}
	for _, r := range rows {
		what := r.method + " " + r.path
		req, _ := http.NewRequest(r.method, r.srv.URL+r.path, strings.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.srv.Client().Do(req)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		requireEnvelope(t, what, resp, r.status, r.code)
	}
}

// newBareDaemon serves an engine without series, prober, scenarios,
// checkpoint, finish or results; its submit hook answers a "busy" sample
// with backpressure and a "closed" one with a finished engine.
func newBareDaemon(t *testing.T) *httptest.Server {
	scfg := core.NewFromUniverse(testUniverse()).StreamConfig()
	scfg.Timeseries.Disabled = true
	eng := stream.New(scfg)
	eng.Start(context.Background())
	srv := httptest.NewServer(api.New(api.Config{
		Engine: eng,
		Submit: func(_ context.Context, s *model.Sample) error {
			switch string(s.Content) {
			case "busy":
				return context.DeadlineExceeded
			case "closed":
				return stream.ErrFinished
			}
			return nil
		},
	}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// newFullDaemon serves an empty engine with a prober (never started) and a
// scenario manager retaining one job. Job sc-1 is submitted and parked at its
// fork instant, the manager's third clock reading, so it stays running: its
// delta is pending and the retention cap is full.
func newFullDaemon(t *testing.T) *httptest.Server {
	scfg := core.NewFromUniverse(testUniverse()).StreamConfig()
	eng := stream.New(scfg)
	eng.Start(context.Background())
	var reads atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	mgr, err := scenario.NewManager(scenario.Config{
		Engine:      eng,
		Base:        scfg,
		MaxRetained: 1,
		Now: func() time.Time {
			if reads.Add(1) == 3 {
				close(entered)
				<-release
			}
			return scfg.QueryTime
		},
	})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	id, err := mgr.Submit(scenario.Document{Interventions: []scenario.Intervention{
		{Kind: scenario.KindPowFork, At: model.Date(2018, 6, 1)},
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	t.Cleanup(func() {
		close(release)
		mgr.Wait(id, time.Minute)
	})
	srv := httptest.NewServer(api.New(api.Config{
		Engine:    eng,
		Probe:     probe.New(probe.Config{Source: probe.NewDirectorySource(scfg.Pools, scfg.QueryTime)}),
		Scenarios: mgr,
	}).Handler())
	t.Cleanup(srv.Close)
	return srv
}
