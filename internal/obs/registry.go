// Package obs is the production observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with fixed bucket ladders)
// rendered in the Prometheus text exposition format, plus structured-logging
// helpers over log/slog with component-scoped loggers.
//
// The registry is deliberately tiny — no client_golang dependency, no
// dynamic label cardinality tricks, no push machinery. Subsystems register
// their instruments once (same name + same label set returns the same
// instrument, so registration is idempotent) and the HTTP handler renders a
// consistent snapshot on every scrape:
//
//	reg := obs.NewRegistry()
//	lat := reg.Histogram("stream_stage_duration_seconds",
//	        "Per-stage latency.", obs.LatencyBuckets, obs.L("stage", "sanity"))
//	lat.Observe(d.Seconds())
//	mux.Handle("GET /metrics", reg.Handler())
//
// Counters and histograms are lock-free on the hot path (atomics only);
// gauges backed by functions are evaluated at scrape time, which is how
// queue depths and cache sizes are exported without any bookkeeping on the
// instrumented path.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as rendered in # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Label is one name=value metric label.
type Label struct {
	Name  string
	Value string
}

// L constructs a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// labelSignature serializes a label set into the map key and the rendered
// {a="b",c="d"} form. Labels are sorted by name so the same set always maps
// to the same instrument regardless of argument order.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(h string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(h)
}

// instrument is anything a family can render.
type instrument interface {
	// write renders the instrument's sample lines. name is the family name,
	// sig the rendered label signature ("" or "{...}").
	write(b *strings.Builder, name, sig string)
}

// family groups every instrument sharing one metric name.
type family struct {
	name string
	help string
	typ  string
	// buckets pins the ladder for histogram families so two registrations
	// with different ladders are caught as programming errors.
	buckets []float64

	instruments map[string]instrument
}

// Registry holds instruments and renders them. All methods are safe for
// concurrent use; instrument registration is idempotent on (name, labels).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// register resolves (name, labels) to the family's instrument, creating
// family and instrument on first use. A family that breaks the naming rules
// (checkFamily) panics when it is created; type or ladder mismatches on an
// existing name panic too: two subsystems fighting over one metric name is a
// programming error that must not surface as silently wrong exposition.
func (r *Registry) register(name, help, typ string, buckets []float64, labels []Label, mk func() instrument) instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		if broken := checkFamily(name, help, typ, buckets); broken != "" {
			panic(fmt.Sprintf("obs: metric %q: %s", name, broken))
		}
		f = &family{name: name, help: help, typ: typ, buckets: buckets, instruments: map[string]instrument{}}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if typ == typeHistogram && !slices.Equal(f.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q registered with two different bucket ladders", name))
	}
	sig := labelSignature(labels)
	if inst, ok := f.instruments[sig]; ok {
		return inst
	}
	inst := mk()
	f.instruments[sig] = inst
	return inst
}

// checkFamily enforces the naming conventions dashboards rely on, returning
// the broken rule ("" when the family is fine): names are snake_case,
// counters end in _total and gauges do not, histograms carry their unit
// (_seconds or _bytes) and the shared ladder matching it, and help is
// non-empty.
func checkFamily(name, help, typ string, buckets []float64) string {
	if !isSnakeCase(name) {
		return "name is not snake_case (want [a-z][a-z0-9_]* with no __ or trailing _)"
	}
	if strings.TrimSpace(help) == "" {
		return "empty help string"
	}
	total := strings.HasSuffix(name, "_total")
	switch typ {
	case typeCounter:
		if !total {
			return "counter name must end in _total"
		}
	case typeGauge:
		if total {
			return "gauge name must not end in _total"
		}
	case typeHistogram:
		switch {
		case strings.HasSuffix(name, "_seconds"):
			if slices.Equal(buckets, SizeBuckets) {
				return "_seconds histogram uses the SizeBuckets ladder"
			}
		case strings.HasSuffix(name, "_bytes"):
			if slices.Equal(buckets, LatencyBuckets) {
				return "_bytes histogram uses the LatencyBuckets ladder"
			}
		default:
			return "histogram name must end in _seconds or _bytes"
		}
	}
	return ""
}

func isSnakeCase(name string) bool {
	if name == "" || name[0] < 'a' || name[0] > 'z' || name[len(name)-1] == '_' || strings.Contains(name, "__") {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			return false
		}
	}
	return true
}

// Counter returns the monotonically increasing counter for (name, labels),
// registering it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, typeCounter, nil, labels, func() instrument { return &Counter{} }).(*Counter)
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for subsystems that already keep their own atomic
// counters.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeCounter, nil, labels, func() instrument { return valueFunc(fn) })
}

// Gauge returns the settable gauge for (name, labels), registering it on
// first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, typeGauge, nil, labels, func() instrument { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge evaluated at scrape time. fn must be safe for
// concurrent use; it typically snapshots a queue depth or cache size under
// the owning subsystem's lock.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeGauge, nil, labels, func() instrument { return valueFunc(fn) })
}

// Histogram returns the histogram for (name, labels) over the given bucket
// ladder (upper bounds, strictly increasing; the +Inf overflow bucket is
// implicit), registering it on first use.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bucket ladder not strictly increasing", name))
		}
	}
	ladder := append([]float64(nil), buckets...)
	return r.register(name, help, typeHistogram, ladder, labels, func() instrument {
		return &Histogram{buckets: ladder, counts: make([]atomic.Uint64, len(ladder))}
	}).(*Histogram)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and samples
// sorted by label signature, so successive scrapes of unchanged state are
// byte-identical.
func (r *Registry) WritePrometheus(b *strings.Builder) {
	// Snapshot families AND their instrument maps under the lock: register()
	// mutates f.instruments lazily (e.g. a first-seen route/status creating a
	// counter mid-scrape), so the maps must not be iterated unlocked. The
	// instruments themselves are atomics and render safely outside the lock.
	type famSnap struct {
		name, help, typ string
		sigs            []string
		insts           []instrument
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]famSnap, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fs := famSnap{
			name:  f.name,
			help:  f.help,
			typ:   f.typ,
			sigs:  make([]string, 0, len(f.instruments)),
			insts: make([]instrument, 0, len(f.instruments)),
		}
		for sig := range f.instruments {
			fs.sigs = append(fs.sigs, sig)
		}
		sort.Strings(fs.sigs)
		for _, sig := range fs.sigs {
			fs.insts = append(fs.insts, f.instruments[sig])
		}
		fams = append(fams, fs)
	}
	r.mu.Unlock()

	for _, f := range fams {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
		for i, sig := range f.sigs {
			f.insts[i].write(b, f.name, sig)
		}
	}
}

// Handler serves the exposition over HTTP (GET/HEAD only).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var b strings.Builder
		r.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	})
}

// formatValue renders a sample value: integers without exponent noise,
// everything else in Go's shortest-roundtrip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing value. The zero value is ready to
// use, but counters should be obtained from a Registry so they render.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (must be >= 0 for the exposition to stay a valid counter).
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

func (c *Counter) write(b *strings.Builder, name, sig string) {
	fmt.Fprintf(b, "%s%s %s\n", name, sig, formatValue(c.Value()))
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v (negative to decrease).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(b *strings.Builder, name, sig string) {
	fmt.Fprintf(b, "%s%s %s\n", name, sig, formatValue(g.Value()))
}

// valueFunc renders a scrape-time function as a single sample.
type valueFunc func() float64

func (f valueFunc) write(b *strings.Builder, name, sig string) {
	fmt.Fprintf(b, "%s%s %s\n", name, sig, formatValue(f()))
}

// Histogram counts observations into a fixed ladder of upper bounds plus an
// implicit +Inf overflow bucket. Observe is lock-free; rendering sums the
// per-bucket counts cumulatively as the exposition format requires. The
// count/sum pair is not read atomically with the buckets, so a scrape racing
// an Observe may see the observation in one but not the other — harmless for
// monitoring, and the steady state is exact.
type Histogram struct {
	buckets []float64
	counts  []atomic.Uint64
	// overflow counts observations above the last bound.
	overflow atomic.Uint64
	count    atomic.Uint64
	sumBits  atomic.Uint64
}

// Observe records one value. A value exactly on a bucket boundary counts
// into that bucket (le is an inclusive upper bound).
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.buckets, v)
	// SearchFloat64s finds the first bound >= v, which is exactly the
	// Prometheus le semantics (v <= bound).
	if idx < len(h.buckets) {
		h.counts[idx].Add(1)
	} else {
		h.overflow.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations so far. Only tests read it; a
// scrape reads the whole distribution.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) write(b *strings.Builder, name, sig string) {
	// The bucket lines need the le label merged into the signature.
	base := strings.TrimSuffix(strings.TrimPrefix(sig, "{"), "}")
	var cum uint64
	for i, bound := range h.buckets {
		cum += h.counts[i].Load()
		writeBucketLine(b, name, base, strconv.FormatFloat(bound, 'g', -1, 64), cum)
	}
	cum += h.overflow.Load()
	writeBucketLine(b, name, base, "+Inf", cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, formatValue(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, h.count.Load())
}

func writeBucketLine(b *strings.Builder, name, baseLabels, le string, cum uint64) {
	if baseLabels == "" {
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, le, cum)
	} else {
		fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, baseLabels, le, cum)
	}
}

// LatencyBuckets is the default ladder for operation latencies, spanning
// 10µs..2.5s — wide enough for in-memory stage work at the bottom and
// fsync/checkpoint tails at the top.
var LatencyBuckets = []float64{
	0.00001, 0.00005, 0.0001, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// SizeBuckets is the default ladder for byte sizes (256B..64MB).
var SizeBuckets = []float64{
	256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
}
