package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/probe"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// TestProbeSDKEndToEnd drives the probe surface through the SDK against a
// probing daemon: bulk-ingest a shuffled feed, wait for probe convergence
// via ProbeStats, force refreshes, finish through the API, and require the
// final results to be byte-identical to the batch summary — the SDK-level
// version of the CI probe smoke.
func TestProbeSDKEndToEnd(t *testing.T) {
	u, batch := testUniverse()
	scfg := core.NewFromUniverse(u).StreamConfig()
	scfg.Shards = 4
	prober := probe.New(probe.Config{
		Source:  probe.NewDirectorySource(scfg.Pools, scfg.QueryTime),
		Workers: 4,
	})
	scfg.Prober = prober
	ctx := context.Background()

	eng := stream.New(scfg)
	d := newDaemonWithEngine(t, eng, func(cfg *api.Config) {
		cfg.Probe = prober
		cfg.Finish = eng.Finish
	})
	prober.Start(ctx)
	t.Cleanup(prober.Close)

	wire := wireCorpus(u, 17)
	if res, err := d.cl.SubmitSamples(ctx, wire); err != nil || res.Accepted != len(wire) {
		t.Fatalf("bulk upload: accepted %d err %v", res.Accepted, err)
	}

	// Wait for absorption, then probe convergence via the SDK.
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := d.cl.Stats(ctx)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Analyzed+st.Duplicates >= int64(len(wire)) && st.Backpressure == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("absorption stalled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for {
		ps, err := d.cl.ProbeStats(ctx)
		if err != nil {
			t.Fatalf("probe stats: %v", err)
		}
		if ps.Converged {
			if ps.CacheSize == 0 {
				t.Fatal("converged with an empty probe cache")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe never converged: %+v", ps)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Force-refresh the whole cache and wait for it to drain again.
	ref, err := d.cl.ProbeRefresh(ctx, client.ProbeRefreshQuery{All: true})
	if err != nil {
		t.Fatalf("refresh all: %v", err)
	}
	if ref.Requeued == 0 {
		t.Fatal("refresh all requeued nothing")
	}
	for {
		ps, err := d.cl.ProbeStats(ctx)
		if err != nil {
			t.Fatalf("probe stats: %v", err)
		}
		if ps.Converged {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresh never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Finish over the API; the summary must be byte-identical to the batch
	// pipeline's.
	got, err := d.cl.Finish(ctx)
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(api.ResultsToWire(batch))
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("finished results differ from batch:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
	res, err := d.cl.Results(ctx)
	if err != nil {
		t.Fatalf("results: %v", err)
	}
	if resJSON, _ := json.Marshal(res); string(resJSON) != string(wantJSON) {
		t.Fatalf("/api/v1/results differs from batch:\ngot:  %s\nwant: %s", resJSON, wantJSON)
	}
}

// TestProbeSDKDisabledErrors: against a daemon without a prober the SDK
// surfaces the stable 409 codes.
func TestProbeSDKDisabledErrors(t *testing.T) {
	d := newDaemon(t, nil)
	ctx := context.Background()

	_, err := d.cl.ProbeStats(ctx)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 409 || ae.Code != apiv1.CodeProbeDisabled {
		t.Fatalf("ProbeStats error = %v, want 409 probe_disabled", err)
	}
	_, err = d.cl.ProbeRefresh(ctx, client.ProbeRefreshQuery{})
	if !errors.As(err, &ae) || ae.Code != apiv1.CodeProbeDisabled {
		t.Fatalf("ProbeRefresh error = %v, want probe_disabled", err)
	}
	_, err = d.cl.Finish(ctx)
	if !errors.As(err, &ae) || ae.Code != apiv1.CodeFinishUnavailable {
		t.Fatalf("Finish error = %v, want finish_unavailable", err)
	}
}
