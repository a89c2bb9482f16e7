// Package stratum implements the Stratum mining protocol used between miners
// and pools: newline-delimited JSON-RPC 2.0 over TCP.
//
// Crypto-mining malware authenticates to a pool with a "login" request whose
// login parameter carries the wallet (or e-mail) identifier; the pool replies
// with a job, the miner submits shares, and the pool credits the identifier.
// The measurement pipeline extracts identifiers and pool endpoints from this
// traffic (§III-C of the paper), and the pool simulator in internal/pool
// speaks the server side of the same protocol.
//
// The dialect implemented here is the CryptoNote variant used by xmrig and
// xmr-stak (methods "login", "getjob", "submit", "keepalived"), which is the
// one that matters for Monero-mining malware. A small amount of the
// Bitcoin-style "mining.subscribe"/"mining.authorize" dialect is recognized by
// the traffic parser so that BTC-targeting samples are still attributed.
package stratum

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"
)

// Common protocol errors.
var (
	ErrClosed       = errors.New("stratum: connection closed")
	ErrNotLoggedIn  = errors.New("stratum: not logged in")
	ErrMalformed    = errors.New("stratum: malformed message")
	ErrLoginRefused = errors.New("stratum: login refused")
)

// Request is a JSON-RPC request frame.
type Request struct {
	ID     int64           `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
}

// Response is a JSON-RPC response frame.
type Response struct {
	ID      int64           `json:"id"`
	Jsonrpc string          `json:"jsonrpc,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   *Error          `json:"error,omitempty"`
}

// Error is a JSON-RPC error object.
type Error struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("stratum error %d: %s", e.Code, e.Message) }

// LoginParams is the parameter object of the "login" method.
type LoginParams struct {
	Login string   `json:"login"`
	Pass  string   `json:"pass"`
	Agent string   `json:"agent,omitempty"`
	Algo  []string `json:"algo,omitempty"`
}

// Job is a mining job handed to a worker.
type Job struct {
	Blob     string `json:"blob"`
	JobID    string `json:"job_id"`
	Target   string `json:"target"`
	Height   int64  `json:"height,omitempty"`
	Algo     string `json:"algo,omitempty"`
	SeedHash string `json:"seed_hash,omitempty"`
}

// LoginResult is the result object of a successful "login".
type LoginResult struct {
	ID     string `json:"id"`
	Job    Job    `json:"job"`
	Status string `json:"status"`
}

// SubmitParams is the parameter object of the "submit" method.
type SubmitParams struct {
	ID     string `json:"id"`
	JobID  string `json:"job_id"`
	Nonce  string `json:"nonce"`
	Result string `json:"result"`
	Algo   string `json:"algo,omitempty"`
}

// StatusResult is the generic {"status":"OK"} result.
type StatusResult struct {
	Status string `json:"status"`
}

// Codec frames newline-delimited JSON messages over an io.ReadWriter.
type Codec struct {
	r  *bufio.Reader
	w  io.Writer
	mu sync.Mutex
}

// NewCodec wraps a transport in a Codec.
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{r: bufio.NewReader(rw), w: rw}
}

// WriteJSON marshals v and writes it as one newline-terminated frame.
func (c *Codec) WriteJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return nil
}

// ReadFrame reads one newline-terminated frame.
func (c *Codec) ReadFrame() ([]byte, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		if len(line) == 0 {
			return nil, err
		}
		// Return a trailing unterminated frame as-is.
	}
	line = []byte(strings.TrimRight(string(line), "\r\n"))
	if len(line) == 0 {
		return nil, ErrClosed
	}
	return line, nil
}

// ReadRequest reads and decodes one request frame.
func (c *Codec) ReadRequest() (*Request, error) {
	frame, err := c.ReadFrame()
	if err != nil {
		return nil, err
	}
	var req Request
	if err := json.Unmarshal(frame, &req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	if req.Method == "" {
		return nil, ErrMalformed
	}
	return &req, nil
}

// Client is a Stratum mining client: the role the malware (or a stock miner
// started by the malware) plays. Only tests drive it, against the pool
// server.
type Client struct {
	conn   net.Conn
	codec  *Codec
	nextID int64
	mu     sync.Mutex

	// WorkerID is the session identifier assigned by the pool at login.
	WorkerID string
	// CurrentJob is the most recent job received.
	CurrentJob Job
	// Agent is the user-agent string sent at login.
	Agent string
}

// Dial connects to a pool endpoint ("host:port") with the given timeout.
func Dial(endpoint string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", endpoint, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection in a Client. Useful for tests
// using net.Pipe.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, codec: NewCodec(conn), Agent: "XMRig/2.14.1"}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) call(method string, params any) (*Response, error) {
	c.mu.Lock()
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, err
	}
	if err := c.codec.WriteJSON(&Request{ID: id, Method: method, Params: raw}); err != nil {
		return nil, err
	}
	for {
		frame, err := c.codec.ReadFrame()
		if err != nil {
			return nil, err
		}
		resp := new(Response)
		if err := json.Unmarshal(frame, resp); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		// Skip notifications (frames without a matching id are re-read; a
		// real client would queue job pushes, the simulator's miners poll).
		if resp.ID == id || resp.Error != nil {
			return resp, nil
		}
	}
}

// Login authenticates to the pool with the identifier (wallet or e-mail) and
// password, returning the first job.
func (c *Client) Login(login, pass string) (*LoginResult, error) {
	resp, err := c.call("login", &LoginParams{Login: login, Pass: pass, Agent: c.Agent})
	if err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, fmt.Errorf("%w: %s", ErrLoginRefused, resp.Error.Message)
	}
	var result LoginResult
	if err := json.Unmarshal(resp.Result, &result); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	c.WorkerID = result.ID
	c.CurrentJob = result.Job
	return &result, nil
}

// GetJob asks the pool for a fresh job.
func (c *Client) GetJob() (*Job, error) {
	if c.WorkerID == "" {
		return nil, ErrNotLoggedIn
	}
	resp, err := c.call("getjob", map[string]string{"id": c.WorkerID})
	if err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, resp.Error
	}
	var job Job
	if err := json.Unmarshal(resp.Result, &job); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	c.CurrentJob = job
	return &job, nil
}

// Submit submits a share for the current job. nonce and result are hex strings
// computed by the mining algorithm (or fabricated by the simulator).
func (c *Client) Submit(nonce, result string) (*StatusResult, error) {
	if c.WorkerID == "" {
		return nil, ErrNotLoggedIn
	}
	resp, err := c.call("submit", &SubmitParams{
		ID: c.WorkerID, JobID: c.CurrentJob.JobID, Nonce: nonce, Result: result,
	})
	if err != nil {
		return nil, err
	}
	if resp.Error != nil {
		return nil, resp.Error
	}
	var status StatusResult
	if err := json.Unmarshal(resp.Result, &status); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return &status, nil
}

// KeepAlive sends a keepalived request.
func (c *Client) KeepAlive() error {
	if c.WorkerID == "" {
		return ErrNotLoggedIn
	}
	resp, err := c.call("keepalived", map[string]string{"id": c.WorkerID})
	if err != nil {
		return err
	}
	if resp.Error != nil {
		return resp.Error
	}
	return nil
}

// ExtractedLogin is a (login, pass, agent) triple recovered from captured
// Stratum traffic; the network-analysis stage of the pipeline produces these.
type ExtractedLogin struct {
	Login string
	Pass  string
	Agent string
	// Method distinguishes the CryptoNote "login" dialect from the
	// Bitcoin-style "mining.authorize" dialect.
	Method string
}

// ParseTraffic scans a raw captured byte stream (one or more newline-delimited
// frames, possibly interleaved with non-Stratum noise) and returns every login
// identifier observed. It is deliberately tolerant: malformed frames and
// unrelated lines are skipped.
func ParseTraffic(raw []byte) []ExtractedLogin {
	var out []ExtractedLogin
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || !strings.Contains(line, "{") {
			continue
		}
		var req Request
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			continue
		}
		switch req.Method {
		case "login":
			var p LoginParams
			if err := json.Unmarshal(req.Params, &p); err != nil || p.Login == "" {
				continue
			}
			out = append(out, ExtractedLogin{Login: p.Login, Pass: p.Pass, Agent: p.Agent, Method: "login"})
		case "mining.authorize":
			// Params are ["worker", "password"].
			var arr []string
			if err := json.Unmarshal(req.Params, &arr); err != nil || len(arr) == 0 {
				continue
			}
			e := ExtractedLogin{Login: arr[0], Method: "mining.authorize"}
			if len(arr) > 1 {
				e.Pass = arr[1]
			}
			// Worker names are often "wallet.rigname"; strip the rig suffix.
			if i := strings.Index(e.Login, "."); i > 0 {
				e.Login = e.Login[:i]
			}
			out = append(out, e)
		}
	}
	return out
}

// IsStratumTraffic reports whether the raw capture contains at least one
// Stratum frame (login, submit, subscribe, ...). Only tests call it, to
// check that the sandbox capture carries Stratum; extraction parses the
// capture with ParseTraffic.
func IsStratumTraffic(raw []byte) bool {
	s := string(raw)
	for _, marker := range []string{
		`"method":"login"`, `"method": "login"`,
		`"method":"submit"`, `"method": "submit"`,
		`"method":"mining.subscribe"`, `"method":"mining.authorize"`,
		"stratum+tcp://", "stratum+ssl://",
	} {
		if strings.Contains(s, marker) {
			return true
		}
	}
	return false
}
