package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program. Times are nanoseconds since the tracer was created; Parent is the
// ID of the enclosing span (0 for the workload root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its children cover,
	// filled in by finish.
	Self int64 `json:"self_ns"`
}

// tracer is the in-memory span recorder of a traced run. A nil tracer
// records nothing, which is how untraced runs skip the work.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its ID; end closes it. Used for phases,
// whose children need the ID while the phase is still running.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished call span from the two clock readings the harness
// took around the call anyway.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	t.mu.Unlock()
}

// finish computes every span's self time and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	return t.spans
}

// selfTimes fills Self: duration minus the union of the children's
// intervals, clipped to the parent. Children of one parent may overlap (the
// reader's http spans run beside the submitter's), so the union, not the
// sum, is what the parent did not spend itself.
func selfTimes(spans []span) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a][0] < kids[b][0] })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k[0], until), min(k[1], s.End)
			if hi > lo {
				covered += hi - lo
				until = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// hostInfo names the machine a report was measured on.
type hostInfo struct {
	CPUModel  string `json:"cpu_model"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	Kernel    string `json:"kernel"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

func readHost() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// peakRSSMB reads the process's resident high-water mark (VmHWM) in MiB; 0
// where /proc is absent.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(rest, &kb) // "  123456 kB"; kb stays 0 if the line is not a number
			return kb / 1024
		}
	}
	return 0
}

// pprofTop renders the top-10 cumulative frames of a CPU profile with the go
// tool, or nil when the tool (or the profile) is not usable here.
func pprofTop(profile string) []string {
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=10", exe, profile)
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil
	}
	var frames []string
	inTable := false
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "flat%") {
			inTable = true
			continue
		}
		if inTable && strings.TrimSpace(line) != "" {
			frames = append(frames, strings.Join(strings.Fields(line), " "))
		}
	}
	return frames
}
