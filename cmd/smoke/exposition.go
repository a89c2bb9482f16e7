package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// exposition is a parsed Prometheus text page.
type exposition struct {
	types  map[string]string  // family -> counter|gauge|histogram
	series map[string]float64 // full series line key -> value
}

// requiredFamilies must be present in a drained daemon's exposition.
var requiredFamilies = []string{
	"stream_stage_duration_seconds", "stream_queue_depth", "stream_shards",
	"stream_samples_submitted_total", "stream_samples_analyzed_total",
	"stream_collector_lock_hold_seconds",
	"stream_view_publish_seconds", "stream_view_campaigns_total",
	"api_requests_total", "api_request_duration_seconds", "api_inflight_requests",
	"go_goroutines",
}

// seriesName strips the label block from a series key.
func seriesName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// declared reports whether a series name belongs to a # TYPE-declared
// family, folding the histogram _bucket/_sum/_count suffixes.
func (e *exposition) declared(name string) bool {
	if _, ok := e.types[name]; ok {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && e.types[base] == "histogram" {
			return true
		}
	}
	return false
}

// parseExposition parses the page, requiring every series to belong to a
// declared family and to appear once.
func parseExposition(text string) (*exposition, error) {
	exp := &exposition{types: map[string]string{}, series: map[string]float64{}}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") {
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
		if !exp.declared(seriesName(key)) {
			return nil, fmt.Errorf("line %d: series %q has no # TYPE declaration", ln+1, seriesName(key))
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
	var kept []string
	for _, part := range strings.Split(strings.TrimSuffix(key[open+1:], "}"), ",") {
		if v, isLe := strings.CutPrefix(part, `le="`); isLe {
			le = strings.TrimSuffix(v, `"`)
		} else if part != "" {
			kept = append(kept, part)
		}
	}
	return key[:open] + "{" + strings.Join(kept, ",") + "}", le, le != ""
}

// check verifies the required families are present and, per histogram
// instance, that buckets are cumulative (nondecreasing by bound), the +Inf
// bucket exists, and it equals _count.
func (e *exposition) check() error {
	for _, name := range requiredFamilies {
		if _, ok := e.types[name]; !ok {
			return fmt.Errorf("required metric family %q missing", name)
		}
	}
	type bucket struct {
		le  float64
		val float64
	}
	groups := map[string][]bucket{}
	for key, v := range e.series {
		if !strings.HasSuffix(seriesName(key), "_bucket") {
			continue
		}
		group, le, ok := bucketKey(key)
		if !ok {
			return fmt.Errorf("bucket series %q has no le label", key)
		}
		bound, err := strconv.ParseFloat(le, 64) // "+Inf" parses as +Inf
		if err != nil {
			return fmt.Errorf("bucket series %q: bad le %q", key, le)
		}
		groups[group] = append(groups[group], bucket{le: bound, val: v})
	}
	if len(groups) == 0 {
		return fmt.Errorf("no histogram buckets in exposition")
	}
	for group, buckets := range groups {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
		last := buckets[len(buckets)-1]
		if !math.IsInf(last.le, 1) {
			return fmt.Errorf("%s: no le=\"+Inf\" bucket", group)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].val < buckets[i-1].val {
				return fmt.Errorf("%s: bucket le=%v (%v) < le=%v (%v), not cumulative",
					group, buckets[i].le, buckets[i].val, buckets[i-1].le, buckets[i-1].val)
			}
		}
		// A label-less histogram renders `name_count` with no brace block.
		name := strings.TrimSuffix(seriesName(group), "_bucket")
		countKey := strings.TrimSuffix(strings.Replace(group, name+"_bucket", name+"_count", 1), "{}")
		if count, ok := e.series[countKey]; !ok || last.val != count {
			return fmt.Errorf("%s: +Inf bucket %v != _count %v (series %q present: %v)", group, last.val, count, countKey, ok)
		}
	}
	return nil
}
