package pool

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/stratum"
)

func newTestServer(t *testing.T, policy Policy) (*Server, string, string) {
	t.Helper()
	p := New("minexmr", []string{"minexmr.com"}, model.CurrencyMonero, policy, nil)
	s := NewServer(p)
	// Pin the clock to a pre-fork date so the default "cryptonight" era applies.
	s.Clock = func() time.Time { return date(2017, 6, 1) }
	stratumAddr, err := s.ListenStratum("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenStratum error: %v", err)
	}
	httpAddr, err := s.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenHTTP error: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, stratumAddr, httpAddr
}

func TestServerStratumMiningAndHTTPStats(t *testing.T) {
	s, stratumAddr, httpAddr := newTestServer(t, DefaultPolicy())

	c, err := stratum.Dial(stratumAddr, 2*time.Second)
	if err != nil {
		t.Fatalf("Dial error: %v", err)
	}
	defer c.Close()

	wallet := "4SERVERTESTWALLET"
	res, err := c.Login(wallet, "x")
	if err != nil {
		t.Fatalf("Login error: %v", err)
	}
	if res.Status != "OK" || res.Job.JobID == "" {
		t.Errorf("login result = %+v", res)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Submit("00000001", "deadbeef"); err != nil {
			t.Fatalf("Submit %d error: %v", i, err)
		}
	}
	if _, err := c.GetJob(); err != nil {
		t.Fatalf("GetJob error: %v", err)
	}
	if err := c.KeepAlive(); err != nil {
		t.Fatalf("KeepAlive error: %v", err)
	}

	// Pool-side accounting must reflect the submitted shares.
	stats, err := s.Pool.Stats(wallet, s.Clock())
	if err != nil {
		t.Fatalf("Stats error: %v", err)
	}
	if stats.Hashes != uint64(10*s.SharesPerHash) {
		t.Errorf("hashes = %d, want %d", stats.Hashes, uint64(10*s.SharesPerHash))
	}

	// Query the same wallet over the HTTP stats API, like the profit stage.
	got, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(context.Background(), wallet)
	if err != nil {
		t.Fatalf("WalletStats error: %v", err)
	}
	if got.User != wallet || got.Pool != "minexmr" || got.Hashes != stats.Hashes {
		t.Errorf("HTTP stats = %+v", got)
	}
}

func TestServerHTTPUnknownAndMissingAddress(t *testing.T) {
	_, _, httpAddr := newTestServer(t, DefaultPolicy())
	if _, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(context.Background(), "4UNKNOWN"); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown wallet error = %v, want ErrUnknownUser", err)
	}
	resp, err := http.Get("http://" + httpAddr + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing address status = %d, want 400", resp.StatusCode)
	}
}

func TestServerHTTPOpaquePool(t *testing.T) {
	policy := DefaultPolicy()
	policy.Transparent = false
	s, stratumAddr, httpAddr := newTestServer(t, policy)
	_ = s

	c, err := stratum.Dial(stratumAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Login("miner@mail.ru", "x"); err != nil {
		t.Fatalf("Login error: %v", err)
	}
	if _, err := c.Submit("00", "ff"); err != nil {
		t.Fatalf("Submit error: %v", err)
	}
	if _, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(context.Background(), "miner@mail.ru"); !errors.Is(err, ErrOpaquePool) {
		t.Errorf("opaque pool error = %v, want ErrOpaquePool", err)
	}
}

func TestServerRefusesBannedWalletLogin(t *testing.T) {
	s, stratumAddr, _ := newTestServer(t, DefaultPolicy())
	wallet := "4BANNED_WALLET"
	// Seed the wallet and ban it.
	if err := s.Pool.Credit(wallet, "9.9.9.9", 1000, "cryptonight", s.Clock()); err != nil {
		t.Fatal(err)
	}
	if err := s.Pool.BanWallet(wallet, s.Clock()); err != nil {
		t.Fatal(err)
	}
	c, err := stratum.Dial(stratumAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Login(wallet, "x"); err == nil {
		t.Error("banned wallet login should be refused")
	}
}

func TestServerSubmitBeforeLogin(t *testing.T) {
	_, stratumAddr, _ := newTestServer(t, DefaultPolicy())
	c, err := stratum.Dial(stratumAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Bypass the client-side guard by forging WorkerID, to exercise the
	// server-side check.
	c.WorkerID = "forged"
	if _, err := c.Submit("00", "ff"); err == nil {
		t.Error("server should reject submit before login")
	}
}

func TestServerPoolInfoEndpoint(t *testing.T) {
	s, _, httpAddr := newTestServer(t, DefaultPolicy())
	_ = s.Pool.Credit("4W", "1.1.1.1", 1e9, "cryptonight", s.Clock())
	resp, err := http.Get("http://" + httpAddr + "/api/pool")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pool info status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var info PoolInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != s.Pool.Name || info.Wallets != 1 || info.TotalPaid != s.Pool.TotalPaidAll() {
		t.Errorf("pool info = %+v", info)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	p := New("p", nil, model.CurrencyMonero, DefaultPolicy(), nil)
	s := NewServer(p)
	if _, err := s.ListenStratum("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("first Close error: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close error: %v", err)
	}
}

// TestServerCloseCutsOpenSessions: a miner that logged in and never hung up
// must not keep Close waiting on its session goroutine.
func TestServerCloseCutsOpenSessions(t *testing.T) {
	p := New("p", nil, model.CurrencyMonero, DefaultPolicy(), nil)
	s := NewServer(p)
	addr, err := s.ListenStratum("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := stratum.Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Login("4OPEN_SESSION", "x"); err != nil {
		t.Fatalf("Login error: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close error: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with a logged-in session still open")
	}
}

func TestQueryStatsHTTPBadEndpoint(t *testing.T) {
	if _, err := NewStatsClient("http://127.0.0.1:1", nil).WalletStats(context.Background(), "4W"); err == nil {
		t.Error("querying a closed port should error")
	}
}

// TestServerMethodGuards: the public API endpoints answer 405 with an Allow
// header for anything but GET/HEAD, matching the internal/api convention.
func TestServerMethodGuards(t *testing.T) {
	_, _, httpAddr := newTestServer(t, DefaultPolicy())
	for _, path := range []string{"/api/stats?address=x", "/api/pool"} {
		for _, method := range []string{http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			req, err := http.NewRequest(method, "http://"+httpAddr+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", method, path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("%s %s -> %d, want 405", method, path, resp.StatusCode)
			}
			if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
				t.Fatalf("%s %s Allow = %q, want \"GET, HEAD\"", method, path, allow)
			}
		}
		// HEAD rides along with GET.
		resp, err := http.Head("http://" + httpAddr + path)
		if err != nil {
			t.Fatalf("HEAD %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusMethodNotAllowed {
			t.Fatalf("HEAD %s rejected with 405", path)
		}
	}
}

// TestStatsClientFullRoundTrip: the reusable client decodes the complete
// wallet statistics — payment history included — losslessly, which the
// HTTP probe source's profit parity rests on.
func TestStatsClientFullRoundTrip(t *testing.T) {
	s, _, httpAddr := newTestServer(t, DefaultPolicy())
	wallet := "4CLIENTROUNDTRIP"
	from := date(2017, 3, 1)
	to := date(2017, 5, 1)
	s.Pool.SimulateMining(wallet, 1, 50_000, from, to, 24*time.Hour, nil)

	queriedAt := date(2017, 6, 1)
	want, err := s.Pool.Stats(wallet, queriedAt)
	if err != nil {
		t.Fatalf("direct stats: %v", err)
	}
	if len(want.Payments) == 0 {
		t.Fatal("fixture produced no payments; the round-trip test needs some")
	}
	got, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(context.Background(), wallet)
	if err != nil {
		t.Fatalf("client stats: %v", err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("stats differ after HTTP round trip:\ngot:  %s\nwant: %s", gotJSON, wantJSON)
	}
}

// TestStatsClientErrorPaths covers the client-side classification: 403
// opaque, 404 unknown, connection refused, non-JSON body.
func TestStatsClientErrorPaths(t *testing.T) {
	ctx := context.Background()

	opaquePolicy := DefaultPolicy()
	opaquePolicy.Transparent = false

	// Opaque pool -> ErrOpaquePool.
	{
		_, _, httpAddr := newTestServer(t, opaquePolicy)
		if _, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(ctx, "w"); !errors.Is(err, ErrOpaquePool) {
			t.Fatalf("opaque pool error = %v, want ErrOpaquePool", err)
		}
	}
	// Unknown wallet -> ErrUnknownUser.
	{
		_, _, httpAddr := newTestServer(t, DefaultPolicy())
		if _, err := NewStatsClient("http://"+httpAddr, nil).WalletStats(ctx, "never-seen"); !errors.Is(err, ErrUnknownUser) {
			t.Fatalf("unknown wallet error = %v, want ErrUnknownUser", err)
		}
	}
	// Connection refused -> transport error (neither terminal class).
	{
		_, err := NewStatsClient("http://127.0.0.1:1", nil).WalletStats(ctx, "w")
		if err == nil || errors.Is(err, ErrUnknownUser) || errors.Is(err, ErrOpaquePool) {
			t.Fatalf("connection refused error = %v, want a transport error", err)
		}
	}
	// Unexpected status -> explicit error.
	{
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusTeapot)
		}))
		defer srv.Close()
		if _, err := NewStatsClient(srv.URL, nil).WalletStats(ctx, "w"); err == nil || !strings.Contains(err.Error(), "418") {
			t.Fatalf("unexpected-status error = %v, want mention of 418", err)
		}
	}
}
