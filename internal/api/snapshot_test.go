package api_test

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"cryptomining/internal/api"
	"cryptomining/pkg/apiv1"
)

// TestConditionalRevalidation exercises the ETag surface: snapshot-backed
// GETs carry a strong validator, and If-None-Match revalidation answers 304
// with no body.
func TestConditionalRevalidation(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	get := func(path, inm string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, d.ts.URL+path, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := d.ts.Client().Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}

	for _, path := range []string{"/api/v1/campaigns", "/api/v1/campaigns?limit=3", "/api/v1/campaigns/1"} {
		resp := get(path, "")
		etag := resp.Header.Get("ETag")
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || etag == "" {
			t.Fatalf("GET %s: status %d, etag %q", path, resp.StatusCode, etag)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}

		resp = get(path, etag)
		revalidated, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("GET %s If-None-Match %s: status %d, want 304", path, etag, resp.StatusCode)
		}
		if len(revalidated) != 0 {
			t.Fatalf("GET %s: 304 carried a body (%d bytes)", path, len(revalidated))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("GET %s: 304 etag %q, want %q", path, got, etag)
		}

		// A stale validator misses and gets the full representation again.
		resp = get(path, `"v0"`)
		stale, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(stale) != string(body) {
			t.Fatalf("GET %s with stale etag: status %d, body match %v",
				path, resp.StatusCode, string(stale) == string(body))
		}

		// Weak-comparison: a W/ prefixed candidate still matches, as does a
		// list containing the tag.
		for _, inm := range []string{"W/" + etag, `"nope", ` + etag, "*"} {
			resp = get(path, inm)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("GET %s If-None-Match %q: status %d, want 304", path, inm, resp.StatusCode)
			}
		}
	}

	// The stats endpoint stays live (no validator): uncacheable by design.
	resp := get("/api/v1/stats", "")
	resp.Body.Close()
	if resp.Header.Get("ETag") != "" {
		t.Fatalf("/api/v1/stats unexpectedly carries an ETag")
	}
}

// TestCursorPagination walks the listing by cursor and checks the page
// echoes the position its cursor decoded to.
func TestCursorPagination(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	getPage := func(query string) apiv1.CampaignPage {
		t.Helper()
		resp, err := d.ts.Client().Get(d.ts.URL + "/api/v1/campaigns" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var page apiv1.CampaignPage
		if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
			t.Fatal(err)
		}
		return page
	}

	all := getPage("")
	if all.Total < 4 {
		t.Fatalf("universe too small: %d campaigns", all.Total)
	}
	if all.NextCursor != "" {
		t.Fatalf("unpaginated listing minted a cursor: %q", all.NextCursor)
	}

	// Cursor pages tile the full listing.
	var walked []apiv1.Campaign
	page := getPage("?limit=3")
	for {
		walked = append(walked, page.Campaigns...)
		if page.NextCursor == "" {
			break
		}
		if len(walked) > all.Total {
			t.Fatalf("cursor walk overran the listing: %d > %d", len(walked), all.Total)
		}
		page = getPage("?limit=3&cursor=" + page.NextCursor)
	}
	if len(walked) != all.Total {
		t.Fatalf("cursor walk collected %d campaigns, want %d", len(walked), all.Total)
	}
	for i := range walked {
		if walked[i].ID != all.Campaigns[i].ID {
			t.Fatalf("cursor walk diverges at %d: id %d vs %d", i, walked[i].ID, all.Campaigns[i].ID)
		}
	}

	// The page echoes the position its cursor decoded to.
	first := getPage("?limit=2")
	if first.NextCursor == "" {
		t.Fatal("first page minted no cursor")
	}
	second := getPage("?limit=2&cursor=" + first.NextCursor)
	if second.Offset != 2 || second.Campaigns[0].ID != all.Campaigns[2].ID {
		t.Fatalf("cursor page: offset %d, first id %d; want 2, %d", second.Offset, second.Campaigns[0].ID, all.Campaigns[2].ID)
	}

	// Garbage cursors are client errors.
	resp, err := d.ts.Client().Get(d.ts.URL + "/api/v1/campaigns?cursor=garbage!")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor: status %d, want 400", resp.StatusCode)
	}
	if env := decodeEnvelope(t, resp); env.Error.Code != apiv1.CodeBadRequest {
		t.Fatalf("garbage cursor code %q", env.Error.Code)
	}
}

// TestRateLimit exhausts a tight per-client bucket and checks the 429
// surface: Retry-After, the envelope code, and that non-read methods are
// exempt.
func TestRateLimit(t *testing.T) {
	d := newTestDaemon(t, api.Config{RateLimit: 1, RateBurst: 2})

	var limited *http.Response
	for i := 0; i < 10; i++ {
		resp, err := d.ts.Client().Get(d.ts.URL + "/api/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
			break
		}
		resp.Body.Close()
	}
	if limited == nil {
		t.Fatal("burst of 10 GETs was never throttled at rate 1 burst 2")
	}
	if ra, err := strconv.Atoi(limited.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("429 Retry-After %q", limited.Header.Get("Retry-After"))
	}
	if env := decodeEnvelope(t, limited); env.Error.Code != apiv1.CodeRateLimited {
		t.Fatalf("429 code %q, want %q", env.Error.Code, apiv1.CodeRateLimited)
	}

	// Writes bypass the read throttle: an exhausted bucket still answers the
	// endpoint's own semantics (409 here — no checkpointing configured).
	resp, err := d.ts.Client().Post(d.ts.URL+"/api/v1/checkpoint", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("POST was rate limited; writes must be exempt")
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /checkpoint: status %d, want 409", resp.StatusCode)
	}
}

// TestReadsServeWhileCollectorLocked is the isolation guarantee: with the
// collector mutex held (a long checkpoint, a stalled batch), every
// snapshot-backed GET still completes from the published view.
func TestReadsServeWhileCollectorLocked(t *testing.T) {
	d := newTestDaemon(t, api.Config{})
	d.ingestAll(t)
	d.finish(t)

	release := d.eng.HoldCollectorLock()
	defer release()

	cl := &http.Client{Timeout: 10 * time.Second}
	for _, path := range []string{
		"/api/v1/stats",
		"/api/v1/campaigns",
		"/api/v1/campaigns/1",
		"/api/v1/timeseries",
		"/api/v1/campaigns/1/timeline",
		"/api/v1/campaigns?limit=3",
	} {
		resp, err := cl.Get(d.ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s with collector locked: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with collector locked: status %d", path, resp.StatusCode)
		}
	}
}
