package api_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"cryptomining/internal/api"
	"cryptomining/internal/core"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
)

// TestTimeseriesEndpoints drives the longitudinal endpoints end to end over
// a drained run: the ecosystem snapshot, metric/resolution/window selection,
// and per-campaign timelines.
func TestTimeseriesEndpoints(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	res := d.finish(t)

	var ts apiv1.Timeseries
	getJSON(t, d.ts.URL+"/api/v1/timeseries", &ts)
	if ts.ResolutionSeconds != 1 {
		t.Errorf("default resolution %ds, want 1", ts.ResolutionSeconds)
	}
	bySeries := map[string]float64{}
	for _, s := range ts.Series {
		for _, b := range s.Buckets {
			bySeries[s.Name] += b.Sum
		}
	}
	if int(bySeries["samples"]) != len(res.Outcomes) {
		t.Errorf("samples series sums to %v, want %d", bySeries["samples"], len(res.Outcomes))
	}
	if int(bySeries["kept"]) != len(res.Records) {
		t.Errorf("kept series sums to %v, want %d", bySeries["kept"], len(res.Records))
	}
	if len(ts.Years) == 0 {
		t.Error("no yearly-evolution breakdown")
	}

	// Metric + resolution selection.
	var one apiv1.Timeseries
	getJSON(t, d.ts.URL+"/api/v1/timeseries?metric=kept&resolution=1m&window=2h", &one)
	if len(one.Series) != 1 || one.Series[0].Name != "kept" || one.ResolutionSeconds != 60 {
		t.Errorf("filtered query: %d series, resolution %ds", len(one.Series), one.ResolutionSeconds)
	}

	// Campaign timeline for every listed campaign.
	var page apiv1.CampaignPage
	getJSON(t, d.ts.URL+"/api/v1/campaigns", &page)
	if page.Total == 0 {
		t.Fatal("no campaigns")
	}
	for _, c := range page.Campaigns {
		var tl apiv1.CampaignTimeline
		getJSON(t, fmt.Sprintf("%s/api/v1/campaigns/%d/timeline", d.ts.URL, c.ID), &tl)
		if tl.ID != c.ID || len(tl.Series) != 3 {
			t.Fatalf("campaign %d timeline: id=%d series=%d", c.ID, tl.ID, len(tl.Series))
		}
		var arrivals int64
		for _, s := range tl.Series {
			if s.Name == apiv1.TimelineSamples {
				for _, b := range s.Buckets {
					arrivals += b.Count
				}
			}
		}
		if arrivals == 0 {
			t.Errorf("campaign %d timeline has no sample arrivals", c.ID)
		}
	}
}

// TestTimeseriesParamValidation pins the error envelope for every malformed
// or unresolvable timeline/timeseries request.
func TestTimeseriesParamValidation(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	cases := []struct {
		path string
		want int
		code string
	}{
		{"/api/v1/timeseries?resolution=bogus", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/timeseries?resolution=-5s", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/timeseries?resolution=7s", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/timeseries?window=nope", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/timeseries?window=-1h", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/timeseries?metric=no-such-series", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/campaigns/1/timeline?metric=bogus", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/campaigns/1/timeline?resolution=9h", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/campaigns/abc/timeline", http.StatusBadRequest, apiv1.CodeBadRequest},
		{"/api/v1/campaigns/999999/timeline", http.StatusNotFound, apiv1.CodeNotFound},
	}
	for _, tc := range cases {
		resp, err := http.Get(d.ts.URL + tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.path, env.Error.Code, tc.code)
		}
	}

	// Day-unit resolutions parse ("1d" is a configured default level).
	var ts apiv1.Timeseries
	getJSON(t, d.ts.URL+"/api/v1/timeseries?resolution=1d&window=30d", &ts)
	if ts.ResolutionSeconds != 86400 {
		t.Errorf("1d resolution = %ds", ts.ResolutionSeconds)
	}
}

// TestTimeseriesDisabled409 pins the conflict envelope when the daemon runs
// without the subsystem.
func TestTimeseriesDisabled409(t *testing.T) {
	scfg := core.NewFromUniverse(testUniverse()).StreamConfig()
	scfg.Timeseries.Disabled = true
	eng := stream.New(scfg)
	eng.Start(context.Background())
	srv := httptest.NewServer(api.New(api.Config{
		Engine: eng,
	}).Handler())
	defer srv.Close()

	for _, path := range []string{"/api/v1/timeseries", "/api/v1/campaigns/1/timeline"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("%s: status %d, want 409", path, resp.StatusCode)
		}
		if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeTimeseriesDisabled {
			t.Errorf("%s: code %q", path, env.Error.Code)
		}
	}
}

// TestCampaignsCursorPastEnd pins that a stale cursor — minted against a
// listing that has since shrunk, so its position is at or past the end of
// the (filtered) listing — answers an explicit empty page with the total
// intact: not an error, not a panic, for every filter combination.
func TestCampaignsCursorPastEnd(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	var all apiv1.CampaignPage
	getJSON(t, d.ts.URL+"/api/v1/campaigns", &all)
	if all.Total == 0 {
		t.Fatal("no campaigns to paginate")
	}
	// A filter value that matches at least one campaign, per dimension.
	var pool, wallet string
	for _, c := range all.Campaigns {
		if pool == "" && len(c.Pools) > 0 {
			pool = c.Pools[0]
		}
		if wallet == "" && len(c.Wallets) > 0 {
			wallet = c.Wallets[0]
		}
	}

	filters := []url.Values{
		{},
		{"pool": {pool}},
		{"wallet": {wallet}},
		{"min_xmr": {"0.001"}},
		{"pool": {pool}, "wallet": {wallet}, "min_xmr": {"0.001"}},
		{"pool": {"no-such-pool"}},
	}
	for _, f := range filters {
		// The filtered total differs per filter; read it first.
		base := d.ts.URL + "/api/v1/campaigns"
		if enc := f.Encode(); enc != "" {
			base += "?" + enc
		}
		var filtered apiv1.CampaignPage
		getJSON(t, base, &filtered)

		for _, offset := range []int{filtered.Total, filtered.Total + 1, filtered.Total + 1000} {
			q := url.Values{}
			for k, v := range f {
				q[k] = v
			}
			q.Set("cursor", api.EncodeCursor(1, offset))
			q.Set("limit", "5")
			var page apiv1.CampaignPage
			getJSON(t, d.ts.URL+"/api/v1/campaigns?"+q.Encode(), &page)
			if page.Total != filtered.Total {
				t.Errorf("filter %v offset %d: total %d, want %d", f, offset, page.Total, filtered.Total)
			}
			if page.Campaigns == nil || len(page.Campaigns) != 0 {
				t.Errorf("filter %v offset %d: want explicit empty page, got %v", f, offset, page.Campaigns)
			}
			if page.Offset != offset {
				t.Errorf("filter %v: offset echoed as %d, want %d", f, page.Offset, offset)
			}
		}
	}
}
