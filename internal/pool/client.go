package pool

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"cryptomining/internal/model"
)

// StatsClient is the client side of a pool's public statistics HTTP API
// (Server.ListenHTTP): it fetches per-wallet statistics exactly as the
// paper's measurement queried real pools. The zero HTTP client falls back to
// http.DefaultClient; callers wanting timeouts or retries inject their own.
//
// Errors mirror the in-process accounting engine so callers can classify
// responses uniformly: 404 maps to ErrUnknownUser (the wallet has no activity
// at this pool), 403 to ErrOpaquePool (the pool does not publish statistics);
// transport failures and unexpected statuses are returned verbatim and are
// transient from a crawler's point of view.
type StatsClient struct {
	// BaseURL is the pool API root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the underlying client (nil = http.DefaultClient).
	HTTP *http.Client
}

// NewStatsClient builds a stats client for one pool endpoint.
func NewStatsClient(baseURL string, hc *http.Client) *StatsClient {
	return &StatsClient{BaseURL: baseURL, HTTP: hc}
}

func (c *StatsClient) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// WalletStats fetches the full public statistics of one wallet, including the
// payment history and (where exposed) the historic hashrate series. The
// response is the JSON encoding of model.WalletStats that Server.ListenHTTP
// writes, so a round trip through this client is lossless.
func (c *StatsClient) WalletStats(ctx context.Context, address string) (model.WalletStats, error) {
	u := strings.TrimRight(c.BaseURL, "/") + "/api/stats?address=" + url.QueryEscape(address)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return model.WalletStats{}, fmt.Errorf("pool: build stats request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return model.WalletStats{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		io.Copy(io.Discard, resp.Body)
		return model.WalletStats{}, ErrUnknownUser
	case http.StatusForbidden:
		io.Copy(io.Discard, resp.Body)
		return model.WalletStats{}, ErrOpaquePool
	default:
		io.Copy(io.Discard, resp.Body)
		return model.WalletStats{}, fmt.Errorf("pool: unexpected HTTP status %d", resp.StatusCode)
	}
	var stats model.WalletStats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return model.WalletStats{}, fmt.Errorf("pool: decode stats response: %w", err)
	}
	return stats, nil
}
