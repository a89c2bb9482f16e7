package api_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// newScenarioDaemon builds a live engine with a scenario manager and an API
// server exposing the what-if endpoints, with the corpus already ingested.
func newScenarioDaemon(t *testing.T) *testDaemon {
	t.Helper()
	d := &testDaemon{u: testUniverse()}
	scfg := core.NewFromUniverse(d.u).StreamConfig()
	scfg.Shards = 4
	d.eng = stream.New(scfg)
	d.eng.Start(context.Background())

	mgr, err := scenario.NewManager(scenario.Config{Engine: d.eng, Base: scfg})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	d.ts = httptest.NewServer(api.New(api.Config{Engine: d.eng, Submit: d.eng.Submit, Scenarios: mgr}).Handler())
	t.Cleanup(d.ts.Close)

	d.ingestAll(t)
	total := int64(d.u.Corpus.Len())
	deadline := time.Now().Add(time.Minute)
	for {
		st := d.eng.Stats()
		if st.Analyzed+st.Duplicates == total {
			return d
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine did not quiesce: %d+%d != %d", st.Analyzed, st.Duplicates, total)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScenarioEndpoints(t *testing.T) {
	d := newScenarioDaemon(t)
	c, err := client.New(d.ts.URL)
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}
	ctx := context.Background()

	// Baseline bytes the scenario run must not disturb.
	before := getBody(t, d.ts.URL+"/api/v1/campaigns")

	sub, err := c.SubmitScenario(ctx, apiv1.ScenarioRequest{
		Name: "ban-all",
		Interventions: []apiv1.ScenarioIntervention{{
			Kind:        apiv1.ScenarioPoolBan,
			At:          time.Date(2014, 1, 1, 0, 0, 0, 0, time.UTC),
			Cooperation: map[string]apiv1.ScenarioCooperation{"*": {Cooperative: true, MinIPsToBan: 1}},
		}},
	})
	if err != nil {
		t.Fatalf("SubmitScenario: %v", err)
	}
	if sub.ID == "" {
		t.Fatalf("no job ID returned")
	}

	delta, err := c.WaitScenarioDelta(ctx, sub.ID)
	if err != nil {
		t.Fatalf("WaitScenarioDelta: %v", err)
	}
	if delta.Baseline.XMR <= 0 || delta.Scenario.XMR >= delta.Baseline.XMR {
		t.Fatalf("scenario did not reduce earnings: %+v vs %+v", delta.Scenario, delta.Baseline)
	}
	if len(delta.Campaigns) == 0 || len(delta.Applied) == 0 {
		t.Fatalf("delta missing campaigns/audit: %d campaigns, %d applied",
			len(delta.Campaigns), len(delta.Applied))
	}

	// Status endpoints.
	st, err := c.Scenario(ctx, sub.ID)
	if err != nil || st.State != string(scenario.StateDone) {
		t.Fatalf("Scenario status: %+v err=%v", st, err)
	}
	page, err := c.Scenarios(ctx)
	if err != nil || len(page.Scenarios) != 1 || page.Scenarios[0].ID != sub.ID {
		t.Fatalf("Scenarios listing: %+v err=%v", page, err)
	}

	// The live read tier is untouched by the replay.
	after := getBody(t, d.ts.URL+"/api/v1/campaigns")
	if !bytes.Equal(before, after) {
		t.Fatalf("scenario run changed the live campaign listing")
	}

	// Unknown job: 404 envelope.
	if _, err := c.Scenario(ctx, "sc-404"); err == nil {
		t.Fatalf("unknown scenario id resolved")
	}

	// Invalid document: 400 envelope with bad_request.
	_, err = c.SubmitScenario(ctx, apiv1.ScenarioRequest{
		Interventions: []apiv1.ScenarioIntervention{{Kind: "nuke", At: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)}},
	})
	if ae := asAPIError(t, err); ae.StatusCode != http.StatusBadRequest || ae.Code != apiv1.CodeBadRequest {
		t.Fatalf("invalid doc: got %+v", ae)
	}
}

func TestScenarioDisabled(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	resp, err := http.Post(d.ts.URL+"/api/v1/scenarios", "application/json",
		bytes.NewReader([]byte(`{"interventions":[]}`)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	env := decodeEnvelope(t, resp)
	if resp.StatusCode != http.StatusConflict || env.Error.Code != apiv1.CodeScenarioDisabled {
		t.Fatalf("disabled scenarios: status=%d code=%s", resp.StatusCode, env.Error.Code)
	}
	for _, path := range []string{"/api/v1/scenarios/sc-1", "/api/v1/scenarios/sc-1/delta"} {
		resp, err := http.Get(d.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		env := decodeEnvelope(t, resp)
		if resp.StatusCode != http.StatusConflict || env.Error.Code != apiv1.CodeScenarioDisabled {
			t.Fatalf("%s: status=%d code=%s", path, resp.StatusCode, env.Error.Code)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return buf.Bytes()
}

func asAPIError(t *testing.T, err error) *client.APIError {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an API error, got nil")
	}
	ae, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("expected *client.APIError, got %T: %v", err, err)
	}
	return ae
}
