// Package client is the Go SDK for the streaming daemon's versioned service
// API (/api/v1): typed methods for every endpoint, uniform error-envelope
// decoding, bulk NDJSON sample ingestion and a live event-stream iterator.
//
//	cl, _ := client.New("http://127.0.0.1:8090")
//	stats, err := cl.Stats(ctx)
//	page, err := cl.Campaigns(ctx, client.CampaignQuery{Limit: 10})
//
// Non-2xx responses are returned as *APIError, carrying the HTTP status, the
// machine-readable code and any Retry-After hint.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cryptomining/pkg/apiv1"
)

// APIError is a decoded error-envelope response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the stable machine-readable identifier (apiv1.Code*).
	Code string
	// Message is the human-readable explanation.
	Message string
	// RetryAfter is the server's retry hint, when one was sent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("api error %d (%s): %s", e.StatusCode, e.Code, e.Message)
}

// IsPending reports whether err is the "results not ready yet" condition
// pollers should retry on.
func IsPending(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == apiv1.CodeResultsPending
}

// Client talks to one daemon. Safe for concurrent use.
type Client struct {
	base string
	http *http.Client
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (the default has no
// timeout, so the event stream can run indefinitely; bound individual calls
// with their context instead).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.http = hc }
}

// New creates a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8090").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{base: strings.TrimRight(u.String(), "/"), http: &http.Client{}}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// condition carries conditional-request state through doCond: the validator
// to send, and what came back.
type condition struct {
	// etag is sent as If-None-Match when non-empty.
	etag string
	// newETag is the ETag of the response (also set on 304 answers).
	newETag string
	// notModified reports a 304: out was left untouched.
	notModified bool
}

// do performs one request and decodes the response into out (skipped when
// out is nil). Non-2xx responses are decoded into *APIError.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, body io.Reader, contentType string, out any) error {
	return c.doCond(ctx, method, path, query, body, contentType, out, nil)
}

// doCond is do with optional conditional-request handling: when cond is set,
// its etag rides as If-None-Match, a 304 answer short-circuits as success
// with cond.notModified set, and the response validator lands in
// cond.newETag.
func (c *Client) doCond(ctx context.Context, method, path string, query url.Values, body io.Reader, contentType string, out any, cond *condition) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return fmt.Errorf("client: build %s %s: %w", method, path, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("Accept", "application/json")
	if cond != nil && cond.etag != "" {
		req.Header.Set("If-None-Match", cond.etag)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if cond != nil {
		cond.newETag = resp.Header.Get("ETag")
		if resp.StatusCode == http.StatusNotModified {
			cond.notModified = true
			io.Copy(io.Discard, resp.Body)
			return nil
		}
	}
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *APIError, degrading
// gracefully when the body is not the standard envelope.
func decodeError(resp *http.Response) error {
	ae := &APIError{StatusCode: resp.StatusCode, Code: apiv1.CodeInternal}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env apiv1.ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Code != "" {
		ae.Code = env.Error.Code
		ae.Message = env.Error.Message
	} else {
		ae.Message = strings.TrimSpace(string(raw))
	}
	return ae
}

// Healthz probes liveness.
func (c *Client) Healthz(ctx context.Context) error {
	var h apiv1.Health
	return c.do(ctx, http.MethodGet, "/api/v1/healthz", nil, nil, "", &h)
}

// Stats fetches the live engine counters.
func (c *Client) Stats(ctx context.Context) (apiv1.Stats, error) {
	var out apiv1.Stats
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", nil, nil, "", &out)
	return out, err
}

// CampaignQuery selects and paginates the campaign listing. Zero values are
// omitted: no filters, the first page, and limit 0 meaning "all".
type CampaignQuery struct {
	Limit int
	// Cursor is the opaque next-page token from CampaignPage.NextCursor.
	Cursor string
	// Pool / Wallet / MinXMR filter by attribute.
	Pool   string
	Wallet string
	MinXMR float64
}

func (q CampaignQuery) values() url.Values {
	v := url.Values{}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Cursor != "" {
		v.Set("cursor", q.Cursor)
	}
	if q.Pool != "" {
		v.Set("pool", q.Pool)
	}
	if q.Wallet != "" {
		v.Set("wallet", q.Wallet)
	}
	if q.MinXMR > 0 {
		v.Set("min_xmr", strconv.FormatFloat(q.MinXMR, 'g', -1, 64))
	}
	return v
}

// Campaigns lists live campaigns, filtered and paginated.
func (c *Client) Campaigns(ctx context.Context, q CampaignQuery) (apiv1.CampaignPage, error) {
	var out apiv1.CampaignPage
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns", q.values(), nil, "", &out)
	return out, err
}

// CampaignsConditional is Campaigns with conditional revalidation: etag is
// the validator from a previous call ("" fetches unconditionally). When the
// server answers 304 Not Modified, notModified is true and the returned page
// is zero — reuse the previously fetched one. The returned validator is
// always current; pass it to the next call.
func (c *Client) CampaignsConditional(ctx context.Context, q CampaignQuery, etag string) (page apiv1.CampaignPage, newETag string, notModified bool, err error) {
	cond := condition{etag: etag}
	err = c.doCond(ctx, http.MethodGet, "/api/v1/campaigns", q.values(), nil, "", &page, &cond)
	return page, cond.newETag, cond.notModified, err
}

// Campaign fetches the full detail view of one campaign.
func (c *Client) Campaign(ctx context.Context, id int) (apiv1.CampaignDetail, error) {
	var out apiv1.CampaignDetail
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+strconv.Itoa(id), nil, nil, "", &out)
	return out, err
}

// CampaignConditional is Campaign with conditional revalidation; see
// CampaignsConditional for the etag contract.
func (c *Client) CampaignConditional(ctx context.Context, id int, etag string) (detail apiv1.CampaignDetail, newETag string, notModified bool, err error) {
	cond := condition{etag: etag}
	err = c.doCond(ctx, http.MethodGet, "/api/v1/campaigns/"+strconv.Itoa(id), nil, nil, "", &detail, &cond)
	return detail, cond.newETag, cond.notModified, err
}

// Results fetches the final run summary. While the run is still in flight
// the daemon answers 503; detect that with IsPending and honour the
// APIError's RetryAfter.
func (c *Client) Results(ctx context.Context) (apiv1.Results, error) {
	var out apiv1.Results
	err := c.do(ctx, http.MethodGet, "/api/v1/results", nil, nil, "", &out)
	return out, err
}

// Checkpoint asks the daemon to persist a snapshot now.
func (c *Client) Checkpoint(ctx context.Context) (apiv1.Checkpoint, error) {
	var out apiv1.Checkpoint
	err := c.do(ctx, http.MethodPost, "/api/v1/checkpoint", nil, nil, "", &out)
	return out, err
}

// ProbeStats fetches the wallet-probe crawl snapshot: queue depth, per-pool
// rate/error counters and the cache age distribution. Daemons running
// without a prober answer 409 (code probe_disabled).
func (c *Client) ProbeStats(ctx context.Context) (apiv1.ProbeStats, error) {
	var out apiv1.ProbeStats
	err := c.do(ctx, http.MethodGet, "/api/v1/probe", nil, nil, "", &out)
	return out, err
}

// ProbeRefreshQuery selects what POST /api/v1/probe/refresh re-probes:
// exactly one of Wallet (one wallet, fresh or not) or All (true = the whole
// cache, false = only stale/errored entries).
type ProbeRefreshQuery struct {
	Wallet string
	All    bool
}

// ProbeRefresh forces wallet re-probes and reports how many were scheduled.
func (c *Client) ProbeRefresh(ctx context.Context, q ProbeRefreshQuery) (apiv1.ProbeRefresh, error) {
	v := url.Values{}
	if q.Wallet != "" {
		v.Set("wallet", q.Wallet)
	} else if q.All {
		v.Set("scope", "all")
	} else {
		v.Set("scope", "stale")
	}
	var out apiv1.ProbeRefresh
	err := c.do(ctx, http.MethodPost, "/api/v1/probe/refresh", v, nil, "", &out)
	return out, err
}

// Finish asks the daemon to drain the engine and seal the final results
// (blocking until the dataflow — and, with a prober, the probe crawl — has
// converged), returning them. Afterwards Results serves the same summary.
func (c *Client) Finish(ctx context.Context) (apiv1.Results, error) {
	var out apiv1.Results
	err := c.do(ctx, http.MethodPost, "/api/v1/finish", nil, nil, "", &out)
	return out, err
}

// TimeseriesQuery selects a window of the longitudinal series. Zero values
// are omitted: all metrics, the daemon's finest resolution, full retention.
type TimeseriesQuery struct {
	// Metric restricts the response to one series (e.g. "samples", "kept",
	// "campaigns", "xmr", "pool:<name>"; timeline metrics "samples",
	// "wallets", "xmr").
	Metric string
	// Resolution names a configured retention level: "1s", "1m", "1h", "1d".
	Resolution string
	// Window bounds the series to the most recent span.
	Window time.Duration
}

func (q TimeseriesQuery) values() url.Values {
	v := url.Values{}
	if q.Metric != "" {
		v.Set("metric", q.Metric)
	}
	if q.Resolution != "" {
		v.Set("resolution", q.Resolution)
	}
	if q.Window > 0 {
		v.Set("window", q.Window.String())
	}
	return v
}

// Timeseries fetches the ecosystem-wide longitudinal series (sample/keep
// arrival rates, campaign and priced-XMR gauges, per-pool shares) plus the
// data-time yearly-evolution breakdown. Daemons running with -no-series
// answer 409 (code timeseries_disabled).
func (c *Client) Timeseries(ctx context.Context, q TimeseriesQuery) (apiv1.Timeseries, error) {
	var out apiv1.Timeseries
	err := c.do(ctx, http.MethodGet, "/api/v1/timeseries", q.values(), nil, "", &out)
	return out, err
}

// TimeseriesConditional is Timeseries with conditional revalidation; see
// CampaignsConditional for the etag contract.
func (c *Client) TimeseriesConditional(ctx context.Context, q TimeseriesQuery, etag string) (ts apiv1.Timeseries, newETag string, notModified bool, err error) {
	cond := condition{etag: etag}
	err = c.doCond(ctx, http.MethodGet, "/api/v1/timeseries", q.values(), nil, "", &ts, &cond)
	return ts, cond.newETag, cond.notModified, err
}

// CampaignTimeline fetches one campaign's longitudinal series: sample
// arrivals, wallet first sightings and priced-XMR deltas.
func (c *Client) CampaignTimeline(ctx context.Context, id int, q TimeseriesQuery) (apiv1.CampaignTimeline, error) {
	var out apiv1.CampaignTimeline
	err := c.do(ctx, http.MethodGet, "/api/v1/campaigns/"+strconv.Itoa(id)+"/timeline", q.values(), nil, "", &out)
	return out, err
}

// SubmitSample ingests one sample.
func (c *Client) SubmitSample(ctx context.Context, s apiv1.Sample) (apiv1.IngestResult, error) {
	var out apiv1.IngestResult
	buf, err := json.Marshal(s)
	if err != nil {
		return out, fmt.Errorf("client: encode sample: %w", err)
	}
	err = c.do(ctx, http.MethodPost, "/api/v1/samples", nil, bytes.NewReader(buf), "application/json", &out)
	return out, err
}

// SubmitSamples bulk-ingests samples as one NDJSON request body, applied in
// order server-side. The body is streamed — samples are encoded as the
// transport consumes them — so client memory stays flat and the upload
// overlaps with the engine's absorption, whatever the batch size.
func (c *Client) SubmitSamples(ctx context.Context, samples []apiv1.Sample) (apiv1.IngestResult, error) {
	var out apiv1.IngestResult
	pr, pw := io.Pipe()
	go func() {
		enc := json.NewEncoder(pw)
		for i := range samples {
			if err := enc.Encode(&samples[i]); err != nil {
				pw.CloseWithError(fmt.Errorf("client: encode sample %d: %w", i, err))
				return
			}
		}
		pw.Close()
	}()
	err := c.do(ctx, http.MethodPost, "/api/v1/samples", nil, pr, "application/x-ndjson", &out)
	return out, err
}
