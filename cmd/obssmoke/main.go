// Command obssmoke validates a live streamd's observability surface. It is
// the assertion half of scripts/metrics_smoke.sh:
//
//  1. GET /metrics must be a well-formed Prometheus text exposition: every
//     series belongs to a # TYPE-declared family, histogram buckets are
//     cumulative with le="+Inf" equal to the _count series, and required
//     metric families are present.
//  2. The per-stage histogram counts must agree exactly with the StageStats
//     served by /api/v1/stats (the run is drained when this runs, so both
//     views are stable).
//  3. Responses must carry X-Request-ID; a client-supplied ID must be
//     echoed; error envelopes must repeat the ID.
//
// Usage: obssmoke -addr http://127.0.0.1:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"cryptomining/pkg/apiv1"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the streamd under test")
	flag.Parse()

	if err := run(strings.TrimRight(*addr, "/")); err != nil {
		fmt.Fprintln(os.Stderr, "FATAL:", err)
		os.Exit(1)
	}
	fmt.Println("OK: observability surface validated")
}

func run(base string) error {
	text, err := fetch(base + "/metrics")
	if err != nil {
		return err
	}
	exp, err := parseExposition(text)
	if err != nil {
		return fmt.Errorf("/metrics exposition invalid: %w", err)
	}
	if err := exp.checkHistograms(); err != nil {
		return fmt.Errorf("/metrics histogram invariants: %w", err)
	}
	required := []string{
		"stream_stage_duration_seconds", "stream_queue_depth", "stream_shards",
		"stream_samples_submitted_total", "stream_samples_analyzed_total",
		"stream_collector_lock_hold_seconds",
		"stream_view_publish_seconds", "stream_view_campaigns_total",
		"api_requests_total", "api_request_duration_seconds", "api_inflight_requests",
		"go_goroutines",
	}
	for _, name := range required {
		if _, ok := exp.types[name]; !ok {
			return fmt.Errorf("required metric family %q missing from /metrics", name)
		}
	}
	fmt.Printf("exposition: %d families, %d series, histograms consistent\n",
		len(exp.types), len(exp.series))

	if err := checkStageAgreement(base, exp); err != nil {
		return err
	}
	return checkRequestIDs(base)
}

func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}

// exposition is a parsed Prometheus text page.
type exposition struct {
	types  map[string]string  // family -> counter|gauge|histogram
	series map[string]float64 // full series line key -> value
}

// seriesName strips the label block from a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// familyOf maps a series name to its declaring family, folding the histogram
// _bucket/_sum/_count suffixes.
func (e *exposition) familyOf(name string) (string, bool) {
	if _, ok := e.types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok {
			if e.types[base] == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

func parseExposition(text string) (*exposition, error) {
	exp := &exposition{types: map[string]string{}, series: map[string]float64{}}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", ln+1, fields[3])
			}
			exp.types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unknown comment form: %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("line %d: no value separator: %q", ln+1, line)
		}
		key, raw := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, raw, err)
		}
		name := seriesName(key)
		if _, ok := exp.familyOf(name); !ok {
			return nil, fmt.Errorf("line %d: series %q has no # TYPE declaration", ln+1, name)
		}
		if _, dup := exp.series[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate series %q", ln+1, key)
		}
		exp.series[key] = v
	}
	if len(exp.series) == 0 {
		return nil, fmt.Errorf("empty exposition")
	}
	return exp, nil
}

// bucketKey strips the le label from a _bucket series key, yielding the
// grouping key of one histogram instance.
func bucketKey(key string) (group, le string, ok bool) {
	open := strings.IndexByte(key, '{')
	if open < 0 {
		return "", "", false
	}
	labels := strings.TrimSuffix(key[open+1:], "}")
	var kept []string
	for _, part := range strings.Split(labels, ",") {
		if v, isLe := strings.CutPrefix(part, `le="`); isLe {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		if part != "" {
			kept = append(kept, part)
		}
	}
	return key[:open] + "{" + strings.Join(kept, ",") + "}", le, le != ""
}

// checkHistograms verifies, per histogram instance: buckets are cumulative
// (nondecreasing by bound), the +Inf bucket exists, and it equals _count.
func (e *exposition) checkHistograms() error {
	type bucket struct {
		le  string
		val float64
	}
	groups := map[string][]bucket{}
	for key, v := range e.series {
		name := seriesName(key)
		if !strings.HasSuffix(name, "_bucket") {
			continue
		}
		group, le, ok := bucketKey(key)
		if !ok {
			return fmt.Errorf("bucket series %q has no le label", key)
		}
		groups[group] = append(groups[group], bucket{le: le, val: v})
	}
	if len(groups) == 0 {
		return fmt.Errorf("no histogram buckets in exposition")
	}
	for group, buckets := range groups {
		sort.Slice(buckets, func(i, j int) bool {
			return leBound(buckets[i].le) < leBound(buckets[j].le)
		})
		last := buckets[len(buckets)-1]
		if last.le != "+Inf" {
			return fmt.Errorf("%s: no le=\"+Inf\" bucket", group)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].val < buckets[i-1].val {
				return fmt.Errorf("%s: bucket le=%s (%v) < le=%s (%v), not cumulative",
					group, buckets[i].le, buckets[i].val, buckets[i-1].le, buckets[i-1].val)
			}
		}
		name := strings.TrimSuffix(seriesName(group), "_bucket")
		// A label-less histogram renders `name_count` with no brace block.
		countKey := strings.TrimSuffix(strings.Replace(group, name+"_bucket", name+"_count", 1), "{}")
		count, ok := e.series[countKey]
		if !ok {
			return fmt.Errorf("%s: no matching _count series (looked for %q)", group, countKey)
		}
		if last.val != count {
			return fmt.Errorf("%s: +Inf bucket %v != _count %v", group, last.val, count)
		}
	}
	return nil
}

func leBound(le string) float64 {
	if le == "+Inf" {
		return float64(int64(1) << 62)
	}
	v, _ := strconv.ParseFloat(le, 64)
	return v
}

// checkStageAgreement diffs the exposition's per-stage histogram counts
// against the StageStats the API serves.
func checkStageAgreement(base string, exp *exposition) error {
	body, err := fetch(base + "/api/v1/stats")
	if err != nil {
		return err
	}
	var stats apiv1.Stats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		return fmt.Errorf("decode /api/v1/stats: %w", err)
	}
	if len(stats.Stages) == 0 {
		return fmt.Errorf("/api/v1/stats reports no stages")
	}
	for _, st := range stats.Stages {
		key := fmt.Sprintf(`stream_stage_duration_seconds_count{stage="%s"}`, st.Name)
		got, ok := exp.series[key]
		if !ok {
			return fmt.Errorf("no %s series in /metrics", key)
		}
		if int64(got) != st.Processed {
			return fmt.Errorf("stage %q: /metrics count %v != StageStats processed %d",
				st.Name, got, st.Processed)
		}
		fmt.Printf("stage %-8s metrics=%d stats=%d agree\n", st.Name, int64(got), st.Processed)
	}
	return nil
}

// checkRequestIDs exercises the correlation-ID contract: assigned IDs on
// every response, client IDs honored, and the ID echoed inside error
// envelopes.
func checkRequestIDs(base string) error {
	resp, err := http.Get(base + "/api/v1/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		return fmt.Errorf("healthz response carries no X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, base+"/api/v1/campaigns/999999", nil)
	req.Header.Set("X-Request-ID", "obssmoke-test-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("campaigns/999999: status %d, want 404", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "obssmoke-test-1" {
		return fmt.Errorf("client request ID not echoed: header %q", got)
	}
	var envelope apiv1.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil {
		return fmt.Errorf("decode error envelope: %w", err)
	}
	if envelope.Error.RequestID != "obssmoke-test-1" {
		return fmt.Errorf("error envelope request_id = %q, want obssmoke-test-1", envelope.Error.RequestID)
	}
	fmt.Println("request IDs: assigned, echoed and repeated in error envelopes")
	return nil
}
