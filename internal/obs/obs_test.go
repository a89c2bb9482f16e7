package obs

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var b strings.Builder
	r.WritePrometheus(&b)
	return b.String()
}

// expositionLine matches one valid Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [-+0-9.eE]+(Inf|NaN)?$`)

// requireValidExposition asserts every non-comment, non-blank line parses as
// a sample line.
func requireValidExposition(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
	}
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Requests served.", L("route", "/stats"))
	c.Inc()
	c.Add(2)
	g := r.Gauge("queue_depth", "Queue depth.")
	g.Set(7)
	g.Add(-3)
	r.GaugeFunc("cache_size", "Entries.", func() float64 { return 42 })
	r.CounterFunc("events_total", "Events.", func() float64 { return 5 })

	text := render(r)
	requireValidExposition(t, text)
	for _, want := range []string{
		"# TYPE requests_total counter",
		`requests_total{route="/stats"} 3`,
		"# TYPE queue_depth gauge",
		"queue_depth 4",
		"cache_size 42",
		"events_total 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits_total", "Hits.", L("pool", "minexmr"))
	b := r.Counter("hits_total", "Hits.", L("pool", "minexmr"))
	if a != b {
		t.Fatal("same (name, labels) returned two counter instances")
	}
	// Label order must not matter.
	h1 := r.Histogram("lat_seconds", "Latency.", LatencyBuckets, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("lat_seconds", "Latency.", LatencyBuckets, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order produced distinct histograms")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "X.")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "X.")
}

// TestNamingRules pins one accepted and one rejected registration per naming
// rule: a family that breaks a rule panics when it is first registered.
func TestNamingRules(t *testing.T) {
	// The package's own families register cleanly.
	own := NewRegistry()
	RegisterBuildInfo(own)
	RegisterRuntimeMetrics(own)

	counter := func(name, help string) func(*Registry) {
		return func(r *Registry) { r.Counter(name, help) }
	}
	gauge := func(name string) func(*Registry) {
		return func(r *Registry) { r.GaugeFunc(name, "G.", func() float64 { return 0 }) }
	}
	hist := func(name string, ladder []float64) func(*Registry) {
		return func(r *Registry) { r.Histogram(name, "H.", ladder) }
	}
	cases := []struct {
		rule     string
		register func(*Registry)
		ok       bool
	}{
		{"snake_case", counter("jobs_done_total", "Jobs."), true},
		{"snake_case", counter("JobsDone_total", "Jobs."), false},
		{"no double underscore", counter("jobs_done_total", "Jobs."), true},
		{"no double underscore", counter("jobs__done_total", "Jobs."), false},
		{"no trailing underscore", gauge("queue_depth"), true},
		{"no trailing underscore", gauge("queue_depth_"), false},
		{"counter ends in _total", counter("requests_total", "Requests."), true},
		{"counter ends in _total", counter("requests", "Requests."), false},
		{"gauge does not end in _total", gauge("backlog"), true},
		{"gauge does not end in _total", gauge("backlog_total"), false},
		{"histogram unit suffix", hist("req_seconds", LatencyBuckets), true},
		{"histogram unit suffix", hist("req_latency", LatencyBuckets), false},
		{"_seconds not on SizeBuckets", hist("wait_seconds", []float64{1, 2}), true},
		{"_seconds not on SizeBuckets", hist("wait_seconds", SizeBuckets), false},
		{"_bytes not on LatencyBuckets", hist("blob_bytes", SizeBuckets), true},
		{"_bytes not on LatencyBuckets", hist("blob_bytes", LatencyBuckets), false},
		{"non-empty help", counter("helped_total", "Helped."), true},
		{"non-empty help", counter("helped_total", " "), false},
	}
	for _, c := range cases {
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			c.register(NewRegistry())
			return false
		}()
		if panicked == c.ok {
			t.Errorf("%s: accepted=%v, want %v", c.rule, !panicked, c.ok)
		}
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("fresh histogram count=%d sum=%g, want zeros", h.Count(), h.Sum())
	}
	text := render(r)
	requireValidExposition(t, text)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 0`,
		`lat_seconds_bucket{le="1"} 0`,
		`lat_seconds_bucket{le="+Inf"} 0`,
		"lat_seconds_sum 0",
		"lat_seconds_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("zero-observation exposition missing %q:\n%s", want, text)
		}
	}
}

func TestHistogramExactBoundaryAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "Durations.", []float64{0.1, 1, 10})
	h.Observe(0.1) // exactly on the first bound: le is inclusive
	h.Observe(1.0) // exactly on the second
	h.Observe(0.5)
	h.Observe(99) // past the last bound: +Inf overflow only
	text := render(r)
	for _, want := range []string{
		`d_seconds_bucket{le="0.1"} 1`,
		`d_seconds_bucket{le="1"} 3`,
		`d_seconds_bucket{le="10"} 3`,
		`d_seconds_bucket{le="+Inf"} 4`,
		"d_seconds_count 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.1+1.0+0.5+99; got != want {
		t.Fatalf("Sum = %g, want %g", got, want)
	}
}

func TestHistogramLabeledBucketLines(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("stage_seconds", "Stage latency.", []float64{1}, L("stage", "sanity"))
	h.Observe(0.5)
	text := render(r)
	requireValidExposition(t, text)
	if !strings.Contains(text, `stage_seconds_bucket{stage="sanity",le="1"} 1`) {
		t.Fatalf("labeled bucket line missing:\n%s", text)
	}
	if !strings.Contains(text, `stage_seconds_count{stage="sanity"} 1`) {
		t.Fatalf("labeled count line missing:\n%s", text)
	}
}

func TestHistogramMismatchedLadderPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h_seconds", "H.", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("second registration with a different ladder did not panic")
		}
	}()
	r.Histogram("h_seconds", "H.", []float64{1, 2, 3})
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "C.", []float64{0.5})
	c := r.Counter("c_total", "C.")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.25)
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if c.Value() != 8000 {
		t.Fatalf("counter = %g, want 8000", c.Value())
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Escapes.", L("path", `a"b\c`+"\n")).Inc()
	text := render(r)
	if !strings.Contains(text, `esc_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", text)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "OK.").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ok_total 1") {
		t.Fatalf("handler body missing sample:\n%s", buf.String())
	}

	res2, err := srv.Client().Post(srv.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != 405 {
		t.Fatalf("POST /metrics = %d, want 405", res2.StatusCode)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, FormatJSON, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), `"msg":"hello"`) {
		t.Fatalf("json logger output: %q", buf.String())
	}
	buf.Reset()
	lg, err = NewLogger(&buf, FormatText, slog.LevelWarn)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept")
	out := buf.String()
	if strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Fatalf("level filtering wrong: %q", out)
	}
	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Fatal("NewLogger accepted an unknown format")
	}
}

func TestComponentNilBase(t *testing.T) {
	lg := Component(nil, "wal")
	lg.Info("must not panic")
	var buf bytes.Buffer
	base, _ := NewLogger(&buf, FormatText, slog.LevelInfo)
	Component(base, "wal").Info("x")
	if !strings.Contains(buf.String(), "component=wal") {
		t.Fatalf("component attr missing: %q", buf.String())
	}
}

// TestWritePrometheusConcurrentRegister exercises the scrape path against
// lazy instrument registration (e.g. a first-seen route/status creating a
// counter mid-scrape). Under -race this fails if WritePrometheus iterates a
// family's instrument map outside the registry lock.
func TestWritePrometheusConcurrentRegister(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for g := 0; g < 4; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Counter("lazy_total", "Lazy.",
					L("route", strings.Repeat("x", g+1)+string(rune('a'+i%26))),
					L("n", string(rune('0'+i%10)))).Inc()
				r.Histogram("lazy_seconds", "Lazy.", []float64{0.1, 1},
					L("n", string(rune('0'+i%10)))).Observe(0.05)
			}
		}(g)
	}
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Validation happens on the test goroutine after the writers
				// finish; here the scrape itself is the race under test.
				_ = render(r)
			}
		}
	}()
	writers.Wait()
	close(stop)
	scraper.Wait()
	requireValidExposition(t, render(r))
}
