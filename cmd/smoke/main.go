// Command smoke is the end-to-end smoke driver: it builds streamd, poolserver
// and scenarioctl into a temporary directory, spawns the real binaries — flag
// parsing, the log contract, signals and SIGKILL durability are what the
// smokes are for — and checks what they serve against the batch pipeline.
//
//	go run ./cmd/smoke <resume|api|probe|timeseries|metrics|scenario|load|all>
//
// Run it from the repository root. It takes the scenario name and nothing
// else. Every child listens on 127.0.0.1:0 and the driver reads the bound
// address from the child's startup log line, so runs never collide on a port.
// All scenarios use the universe of seed 7 at scale 0.12, the one
// internal/core's golden artefacts are pinned at.
//
//	resume      SIGKILL a durable replay mid-flight (past a checkpoint, short
//	            of the end), restart it, and require the resumed
//	            /api/v1/results to be byte-identical to an uninterrupted run
//	api         -no-feed service: bulk-ingest the corpus through pkg/client;
//	            listing, ten detail views and a re-rendered Table VIII must
//	            match the batch pipeline bit for bit
//	probe       the same against live poolservers crawled over -probe-http,
//	            plus the sealed /api/v1/results and the probe telemetry
//	timeseries  /api/v1/timeseries at every resolution and one campaign
//	            timeline byte-identical across SIGKILL and recovery
//	metrics     exposition validity, stage histogram counts against
//	            /api/v1/stats, request IDs, aux listeners, JSON logs
//	scenario    a pool-ban what-if through the scenarioctl binary: negative
//	            delta with an audit trail, live read tier untouched
//	load        2000 conditional pollers against a tight -api-rate: no 5xx,
//	            no transport error, 304s and 429s both seen
package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// waitLimit bounds every wait on a child: a log line, a drain, a kill point.
const waitLimit = 2 * time.Minute

type scenario struct {
	name string
	run  func(*env)
}

var scenarios = []scenario{
	{"resume", resumeSmoke},
	{"api", apiSmoke},
	{"probe", probeSmoke},
	{"timeseries", timeseriesSmoke},
	{"metrics", metricsSmoke},
	{"scenario", scenarioSmoke},
	{"load", loadSmoke},
}

func main() {
	var name string
	if len(os.Args) == 2 {
		name = os.Args[1]
	}
	var selected []scenario
	for _, s := range scenarios {
		if name == "all" || name == s.name {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "usage: go run ./cmd/smoke <resume|api|probe|timeseries|metrics|scenario|load|all>")
		os.Exit(2)
	}

	e := newEnv()
	for _, s := range selected {
		fmt.Printf("== %s ==\n", s.name)
		s.run(e)
		e.stopAll()
		fmt.Printf("OK: %s smoke passed\n", s.name)
	}
	os.RemoveAll(e.dir)
}

// env is one driver run: the temporary directory holding the built binaries
// and every scenario's files, and the children still to be reaped.
type env struct {
	dir string

	mu    sync.Mutex
	procs []*proc
}

// proc is one spawned child with everything it wrote to stdout and stderr.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *logBuf
	done chan struct{} // closed once the process has exited
}

// logBuf collects a child's output while the driver reads it.
type logBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// newEnv creates the temporary directory and builds the three binaries the
// smokes drive into it.
func newEnv() *env {
	dir, err := os.MkdirTemp("", "smoke-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "FATAL:", err)
		os.Exit(1)
	}
	e := &env{dir: dir}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.fatalf("interrupted")
	}()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/streamd", "./cmd/poolserver", "./cmd/scenarioctl")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		e.fatalf("build the binaries (run from the repository root): %v", err)
	}
	return e
}

// fatalf reports a failed check with every live child's output, reaps the
// children, removes the temporary directory and exits 1.
func (e *env) fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "FATAL: "+format+"\n", args...)
	e.mu.Lock()
	for _, p := range e.procs {
		out := p.log.String()
		if keep := 8 << 10; len(out) > keep { // a daemon under load logs every request
			out = "[...]" + out[len(out)-keep:]
		}
		fmt.Fprintf(os.Stderr, "--- %s output ---\n%s", p.name, out)
	}
	e.mu.Unlock()
	e.stopAll()
	os.RemoveAll(e.dir)
	os.Exit(1)
}

// stopAll kills every child still running and waits for it to be gone.
func (e *env) stopAll() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// spawn starts one of the built binaries.
func (e *env) spawn(bin string, args ...string) *proc {
	p := &proc{name: bin, log: &logBuf{}, done: make(chan struct{})}
	p.cmd = exec.Command(filepath.Join(e.dir, bin), args...)
	p.cmd.Stdout, p.cmd.Stderr = p.log, p.log
	if err := p.cmd.Start(); err != nil {
		e.fatalf("start %s: %v", bin, err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a killed child carries nothing
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p
}

// kill delivers SIGKILL and returns once the process has exited.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill() // already exited is fine
	<-p.done
}

// run executes one of the built binaries to completion and returns its
// stdout; a non-zero exit fails the smoke.
func (e *env) run(bin string, args ...string) []byte {
	cmd := exec.Command(filepath.Join(e.dir, bin), args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		e.fatalf("%s %v: %v", bin, args, err)
	}
	return out
}

// wait polls cond until it holds, failing the smoke after waitLimit.
func (e *env) wait(what string, cond func() bool) {
	deadline := time.Now().Add(waitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			e.fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// logged waits until the child's output matches the pattern and returns its
// last capture group (the whole match when it has none).
func (e *env) logged(p *proc, pattern string) string {
	re := regexp.MustCompile(pattern)
	var m []string
	e.wait(fmt.Sprintf("%s to log %q", p.name, pattern), func() bool {
		// Exit is observed before the match is tried, so the output of a child
		// that has exited is searched whole.
		exited := false
		select {
		case <-p.done:
			exited = true
		default:
		}
		if m = re.FindStringSubmatch(p.log.String()); m == nil && exited {
			e.fatalf("%s exited before logging %q", p.name, pattern)
		}
		return m != nil
	})
	return m[len(m)-1]
}

// upAddr is the pattern of a streamd "<msg> addr=http://host:port" startup
// line in either log format; the capture is the base URL.
func upAddr(msg string) string {
	return regexp.QuoteMeta(msg) + `.*?addr"?[=:]"?(http://[0-9.:]+)`
}

// streamd starts the daemon over the smokes' universe on an ephemeral port
// and returns it with the base URL of its API.
func (e *env) streamd(args ...string) (*proc, string) {
	p := e.spawn("streamd", append([]string{"-seed", "7", "-scale", "0.12", "-http", "127.0.0.1:0"}, args...)...)
	return p, e.logged(p, upAddr("service API up"))
}

// do performs one request and returns the response with its body read.
func (e *env) do(req *http.Request) (*http.Response, []byte) {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.fatalf("%s %s: %v", req.Method, req.URL, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		e.fatalf("%s %s: read body: %v", req.Method, req.URL, err)
	}
	return resp, body
}

// request is do for a bodyless request.
func (e *env) request(method, url string) (*http.Response, []byte) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		e.fatalf("%v", err)
	}
	return e.do(req)
}

// body GETs the URL and requires 200.
func (e *env) body(url string) []byte {
	resp, body := e.request(http.MethodGet, url)
	if resp.StatusCode != http.StatusOK {
		e.fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// bodies GETs base+path for every path.
func (e *env) bodies(base string, paths []string) [][]byte {
	out := make([][]byte, len(paths))
	for i, p := range paths {
		out[i] = e.body(base + p)
	}
	return out
}

// drained waits for the daemon's replay to drain — /api/v1/results answers
// 503 until then — and returns the sealed results body.
func (e *env) drained(base string) []byte {
	var body []byte
	e.wait("the replay to drain", func() bool {
		var resp *http.Response
		resp, body = e.request(http.MethodGet, base+"/api/v1/results")
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
			e.fatalf("GET /api/v1/results: %s: %s", resp.Status, body)
		}
		return resp.StatusCode == http.StatusOK
	})
	return body
}

// sameBodies requires two captures of the same paths to be byte-identical.
func (e *env) sameBodies(what string, paths []string, before, after [][]byte) {
	for i, p := range paths {
		if !bytes.Equal(before[i], after[i]) {
			e.fatalf("%s differs %s:\n--- before ---\n%s\n--- after ---\n%s", p, what, before[i], after[i])
		}
	}
}

// hasFile reports whether dir holds a file whose name starts with prefix.
func hasFile(dir, prefix string) bool {
	m, _ := filepath.Glob(filepath.Join(dir, prefix+"*")) // the pattern is well-formed
	return len(m) > 0
}
