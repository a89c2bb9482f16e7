package client_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/persist"
	"cryptomining/internal/probe"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// TestDaemonShutdownLeavesNoGoroutines wires the whole daemon (engine,
// prober, WAL store, scenario manager, API), drives every long-lived path
// once (bulk ingest, an event subscription, a what-if replay, finish) and
// shuts it down in streamd's order. Every goroutine it started must be gone
// within the deadline.
func TestDaemonShutdownLeavesNoGoroutines(t *testing.T) {
	u, _ := testUniverse()
	wire := wireCorpus(u, 5)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	scfg := core.NewFromUniverse(u).StreamConfig()
	scfg.Shards = 2
	prober := probe.New(probe.Config{Source: probe.NewDirectorySource(scfg.Pools, scfg.QueryTime), Workers: 2})
	scfg.Prober = prober
	eng := stream.New(scfg)
	st, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatalf("persist.Open: %v", err)
	}
	if _, err := st.Resume(ctx, eng); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	prober.Start(ctx)
	mgr, err := scenario.NewManager(scenario.Config{Engine: eng, Base: scfg})
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	ts := httptest.NewServer(api.New(api.Config{
		Engine:    eng,
		Submit:    st.Submit,
		Probe:     prober,
		Scenarios: mgr,
		Finish:    eng.Finish,
	}).Handler())
	transport := &http.Transport{}
	cl, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: transport}))
	if err != nil {
		t.Fatalf("client.New: %v", err)
	}

	events, err := cl.Events(ctx)
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	drained := make(chan bool, 1)
	go func() {
		for {
			ev, err := events.Next()
			if err != nil || ev.Type == apiv1.EventDrained {
				drained <- err == nil
				return
			}
		}
	}()

	if res, err := cl.SubmitSamples(ctx, wire); err != nil || res.Accepted != len(wire) {
		t.Fatalf("bulk upload: accepted %d err %v", res.Accepted, err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		if s := eng.Stats(); s.Analyzed+s.Duplicates >= int64(len(wire)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ingest did not drain")
		}
	}
	sub, err := cl.SubmitScenario(ctx, apiv1.ScenarioRequest{Interventions: []apiv1.ScenarioIntervention{
		{Kind: apiv1.ScenarioPowFork, At: time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)},
	}})
	if err != nil {
		t.Fatalf("SubmitScenario: %v", err)
	}
	if _, err := cl.WaitScenarioDelta(ctx, sub.ID); err != nil {
		t.Fatalf("WaitScenarioDelta: %v", err)
	}
	if _, err := cl.Finish(ctx); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if !<-drained {
		t.Fatal("event stream ended without the drained event")
	}

	events.Close()
	ts.Close()
	prober.Close()
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}
	cancel()
	transport.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines still running after shutdown, %d before wiring:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
