package pool

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"cryptomining/internal/obs"
	"cryptomining/internal/pow"
	"cryptomining/internal/stratum"
)

// Server exposes a Pool over the network: a Stratum TCP listener for miners
// and an HTTP JSON API mirroring the public statistics endpoints transparent
// pools provide.
type Server struct {
	Pool *Pool
	// SharesPerHash is the crediting granularity: each accepted Stratum
	// submit credits the wallet with this many hashes (real pools credit the
	// share difficulty; the simulator uses a fixed difficulty).
	SharesPerHash float64
	// Clock supplies the current time; overridable in tests.
	Clock func() time.Time

	log *slog.Logger

	mu        sync.Mutex
	stratumLn net.Listener
	httpSrv   *http.Server
	httpLn    net.Listener
	wg        sync.WaitGroup
	conns     map[net.Conn]struct{}
	closed    bool
	jobSeq    int
}

// ServerOption customizes a Server at construction time.
type ServerOption func(*Server)

// WithLogger attaches a structured logger (scoped to the "pool" component).
// Servers are silent without one, so tests stay quiet by default.
func WithLogger(lg *slog.Logger) ServerOption {
	return func(s *Server) { s.log = obs.Component(lg, "pool") }
}

// NewServer wraps a pool in a network server.
func NewServer(p *Pool, opts ...ServerOption) *Server {
	s := &Server{Pool: p, SharesPerHash: 5000, Clock: time.Now} //cryptolint:allow directclock default wiring: the one site the server Clock seam binds to the real clock
	for _, opt := range opts {
		opt(s)
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	return s
}

// ListenStratum starts accepting Stratum connections on addr (e.g.
// "127.0.0.1:0"). It returns the bound address.
func (s *Server) ListenStratum(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.stratumLn = ln
	s.mu.Unlock()
	s.log.Info("stratum listening", "pool", s.Pool.Name, "addr", ln.Addr().String())
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if !s.trackConn(conn) {
			_ = conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrackConn(conn)
			s.handleConn(conn)
		}()
	}
}

// trackConn registers an open Stratum connection so Close can tear it down;
// it reports false when the server is already closed.
func (s *Server) trackConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = map[net.Conn]struct{}{}
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrackConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handleConn runs the server side of the Stratum session.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	codec := stratum.NewCodec(conn)
	var login string
	remoteIP := remoteIP(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			return
		}
		switch req.Method {
		case "login":
			var p stratum.LoginParams
			if err := json.Unmarshal(req.Params, &p); err != nil || p.Login == "" {
				_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -1, Message: "invalid login params"}})
				continue
			}
			if err := s.Pool.RegisterConnection(p.Login, remoteIP); err != nil {
				s.log.Debug("login rejected", "ip", remoteIP, "err", err)
				_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -403, Message: err.Error()}})
				continue
			}
			login = p.Login
			s.log.Debug("miner login", "wallet", login, "ip", remoteIP)
			result, _ := json.Marshal(&stratum.LoginResult{
				ID:     fmt.Sprintf("%s-%s", s.Pool.Name, remoteIP),
				Job:    s.newJob(),
				Status: "OK",
			})
			_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Result: result})
		case "getjob":
			if login == "" {
				_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -1, Message: "not logged in"}})
				continue
			}
			result, _ := json.Marshal(s.newJob())
			_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Result: result})
		case "submit":
			if login == "" {
				_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -1, Message: "not logged in"}})
				continue
			}
			now := s.Clock()
			algo := pow.AlgorithmAt(s.Pool.networkEpochs(), now)
			err := s.Pool.Credit(login, remoteIP, s.SharesPerHash, algo, now)
			if err != nil {
				_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -2, Message: err.Error()}})
				continue
			}
			result, _ := json.Marshal(&stratum.StatusResult{Status: "OK"})
			_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Result: result})
		case "keepalived":
			result, _ := json.Marshal(&stratum.StatusResult{Status: "KEEPALIVED"})
			_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Result: result})
		default:
			_ = codec.WriteJSON(&stratum.Response{ID: req.ID, Error: &stratum.Error{Code: -32601, Message: "unknown method"}})
		}
	}
}

func (s *Server) newJob() stratum.Job {
	s.mu.Lock()
	s.jobSeq++
	seq := s.jobSeq
	s.mu.Unlock()
	blob := make([]byte, 16)
	for i := range blob {
		blob[i] = byte(seq >> (uint(i%4) * 8))
	}
	return stratum.Job{
		Blob:   hex.EncodeToString(blob),
		JobID:  fmt.Sprintf("job-%d", seq),
		Target: "b88d0600", // fixed difficulty target
		Algo:   pow.AlgorithmAt(s.Pool.networkEpochs(), s.Clock()),
	}
}

// networkEpochs exposes the pool's PoW epochs to the server.
func (p *Pool) networkEpochs() []pow.Epoch { return p.network.Epochs }

func remoteIP(conn net.Conn) string {
	addr := conn.RemoteAddr().String()
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	return addr
}

// ListenHTTP starts the public statistics HTTP API on addr and returns the
// bound address. Endpoints:
//
//	GET /api/stats?address=<wallet>  -> WalletStats JSON (404 unknown, 403 opaque)
//	GET /api/pool                    -> pool summary JSON
func (s *Server) ListenHTTP(addr string) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api/stats", getOnly(s.handleStats))
	mux.HandleFunc("/api/pool", getOnly(s.handlePoolInfo))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	// IdleTimeout reaps parked keep-alive connections; probers reconnect
	// transparently.
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.mu.Lock()
	s.httpSrv = srv
	s.httpLn = ln
	s.mu.Unlock()
	s.log.Info("http stats listening", "pool", s.Pool.Name, "addr", ln.Addr().String())
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), nil
}

// getOnly guards a read-only endpoint: anything but GET (or HEAD, which
// rides along wherever GET is allowed) answers 405 with an Allow header,
// matching the internal/api method-guard convention.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	address := strings.TrimSpace(r.URL.Query().Get("address"))
	if address == "" {
		http.Error(w, "missing address parameter", http.StatusBadRequest)
		return
	}
	stats, err := s.Pool.Stats(address, s.Clock())
	switch {
	case errors.Is(err, ErrOpaquePool):
		http.Error(w, "pool does not publish statistics", http.StatusForbidden)
		return
	case errors.Is(err, ErrUnknownUser):
		http.Error(w, "unknown address", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(stats)
}

// PoolInfo is the wire form of the pool summary served at /api/pool.
type PoolInfo struct {
	Name      string   `json:"name"`
	Currency  string   `json:"currency"`
	Domains   []string `json:"domains"`
	Wallets   int      `json:"wallets"`
	TotalPaid float64  `json:"total_paid"`
}

func (s *Server) handlePoolInfo(w http.ResponseWriter, r *http.Request) {
	info := PoolInfo{
		Name:      s.Pool.Name,
		Currency:  string(s.Pool.Currency),
		Domains:   s.Pool.Domains,
		Wallets:   len(s.Pool.Wallets()),
		TotalPaid: s.Pool.TotalPaidAll(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(info)
}

// Close shuts down the Stratum and HTTP listeners, disconnects any open
// Stratum sessions (clients that never hung up would otherwise keep their
// handler blocked in a read forever) and waits for in-flight handlers to
// finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stratumLn, httpSrv := s.stratumLn, s.httpSrv
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if stratumLn != nil {
		_ = stratumLn.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}
	s.wg.Wait()
	s.log.Info("server closed", "pool", s.Pool.Name, "sessions_cut", len(conns))
	return nil
}
