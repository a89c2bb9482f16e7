package timeseries

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"
	"time"
)

func at(sec int64) time.Time { return time.Unix(sec, 0).UTC() }

func testLevels() []LevelSpec {
	return []LevelSpec{
		{Resolution: time.Second, Buckets: 4},
		{Resolution: 10 * time.Second, Buckets: 4},
		{Resolution: time.Minute, Buckets: 4},
	}
}

func mustStore(t *testing.T, levels []LevelSpec) *Store {
	t.Helper()
	st, err := NewStore(levels)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// renderBuckets gives a compact, diffable view of a bucket list.
func renderBuckets(bs []Bucket) string {
	var b strings.Builder
	for _, bk := range bs {
		fmt.Fprintf(&b, "[%d c=%d sum=%g min=%g max=%g last=%g]\n",
			bk.Start, bk.Count, bk.Sum, bk.Min, bk.Max, bk.Last)
	}
	return b.String()
}

// TestCascadeGolden pins the cascaded-downsampling behaviour exactly: one
// value per second for 65 seconds, value = second index. The 1s ring keeps
// the last 4 sealed buckets (plus the open one), the sealed seconds cascade
// into 10s buckets, and the sealed 10s buckets cascade into minutes.
func TestCascadeGolden(t *testing.T) {
	st := mustStore(t, testLevels())
	for i := int64(0); i <= 65; i++ {
		st.Record(SeriesSamples, at(1000+i), float64(i))
	}

	// 1s level: ring of 4 sealed (1061..1064) + open 1065.
	got1s, ok := st.Buckets(SeriesSamples, time.Second, 0, 0)
	if !ok {
		t.Fatal("1s level missing")
	}
	want1s := "" +
		"[1061 c=1 sum=61 min=61 max=61 last=61]\n" +
		"[1062 c=1 sum=62 min=62 max=62 last=62]\n" +
		"[1063 c=1 sum=63 min=63 max=63 last=63]\n" +
		"[1064 c=1 sum=64 min=64 max=64 last=64]\n" +
		"[1065 c=1 sum=65 min=65 max=65 last=65]\n"
	if got := renderBuckets(got1s); got != want1s {
		t.Errorf("1s buckets:\n%swant:\n%s", got, want1s)
	}

	// 10s level: seconds 1000..1064 have sealed; they cover windows
	// 1000..1060. The open 10s bucket holds 1060..1064 (5 sealed seconds);
	// the ring retains the 4 sealed windows before it.
	got10s, ok := st.Buckets(SeriesSamples, 10*time.Second, 0, 0)
	if !ok {
		t.Fatal("10s level missing")
	}
	want10s := "" +
		"[1020 c=10 sum=245 min=20 max=29 last=29]\n" +
		"[1030 c=10 sum=345 min=30 max=39 last=39]\n" +
		"[1040 c=10 sum=445 min=40 max=49 last=49]\n" +
		"[1050 c=10 sum=545 min=50 max=59 last=59]\n" +
		"[1060 c=5 sum=310 min=60 max=64 last=64]\n"
	if got := renderBuckets(got10s); got != want10s {
		t.Errorf("10s buckets:\n%swant:\n%s", got, want10s)
	}

	// 1m level: sealed 10s windows 1000..1050 cascaded up. Window starts
	// align to the minute: 960 covers 1000..1019, 1020 covers 1020..1059.
	// The 1050 window sealed into the open minute bucket at 1020.
	got1m, ok := st.Buckets(SeriesSamples, time.Minute, 0, 0)
	if !ok {
		t.Fatal("1m level missing")
	}
	want1m := "" +
		"[960 c=20 sum=190 min=0 max=19 last=19]\n" +
		"[1020 c=40 sum=1580 min=20 max=59 last=59]\n"
	if got := renderBuckets(got1m); got != want1m {
		t.Errorf("1m buckets:\n%swant:\n%s", got, want1m)
	}
}

func TestWindowFilter(t *testing.T) {
	st := mustStore(t, testLevels())
	for i := int64(0); i < 5; i++ {
		st.Record(SeriesKept, at(100+i), 1)
	}
	got, ok := st.Buckets(SeriesKept, time.Second, 101, 103)
	if !ok {
		t.Fatal("series missing")
	}
	if len(got) != 2 || got[0].Start != 101 || got[1].Start != 102 {
		t.Errorf("window [101,103) = %s", renderBuckets(got))
	}
	if _, ok := st.Buckets(SeriesKept, 5*time.Second, 0, 0); ok {
		t.Error("unconfigured resolution should report !ok")
	}
	if _, ok := st.Buckets("nope", time.Second, 0, 0); ok {
		t.Error("unknown series should report !ok")
	}
}

// TestMemoryBounded records far more buckets than the rings retain and
// asserts retention stays at the configured capacities.
func TestMemoryBounded(t *testing.T) {
	st := mustStore(t, testLevels())
	for i := int64(0); i < 100000; i++ {
		st.Record(SeriesSamples, at(i*7), 1) // every 7s: a new 1s bucket each time
	}
	for _, res := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		bs, ok := st.Buckets(SeriesSamples, res, 0, 0)
		if !ok {
			t.Fatalf("missing level %v", res)
		}
		if len(bs) > 5 { // cap 4 sealed + 1 open
			t.Errorf("level %v retains %d buckets, want <= 5", res, len(bs))
		}
	}
}

// TestTimeRegressionClamps pins that a point older than the open bucket is
// clamped into it instead of rewriting sealed history.
func TestTimeRegressionClamps(t *testing.T) {
	st := mustStore(t, testLevels())
	st.Record(SeriesSamples, at(100), 1)
	st.Record(SeriesSamples, at(105), 1)
	st.Record(SeriesSamples, at(101), 1) // regression: lands in the open 105 bucket
	bs, _ := st.Buckets(SeriesSamples, time.Second, 0, 0)
	want := "" +
		"[100 c=1 sum=1 min=1 max=1 last=1]\n" +
		"[105 c=2 sum=2 min=1 max=1 last=1]\n"
	if got := renderBuckets(bs); got != want {
		t.Errorf("buckets:\n%swant:\n%s", got, want)
	}
}

func TestTimelineMerge(t *testing.T) {
	st := mustStore(t, testLevels())
	// Two campaigns accumulate overlapping histories, then merge.
	for i := int64(0); i < 20; i++ {
		st.RecordTimeline("a", TimelineSamples, at(200+i), 1)
	}
	for i := int64(0); i < 20; i += 2 {
		st.RecordTimeline("b", TimelineSamples, at(200+i), 1)
	}
	st.RecordTimeline("b", TimelineXMR, at(210), 3.5)

	countAt := func(key string) int64 {
		bs, _ := st.TimelineBuckets(key, TimelineSamples, time.Minute, 0, 0)
		var total int64
		for _, b := range bs {
			total += b.Count
		}
		return total
	}
	wantTotal := countAt("a") + countAt("b")

	st.MergeTimeline("a", "b")

	if _, ok := st.timelines["b"]; ok {
		t.Error("source timeline should be gone after merge")
	}
	metrics := sortedKeys(st.timelines["a"])
	if len(metrics) != 2 || metrics[0] != TimelineSamples || metrics[1] != TimelineXMR {
		t.Errorf("merged metrics = %v", metrics)
	}
	// Arrival counts are additive across the merge at every level.
	if got := countAt("a"); got != wantTotal {
		t.Errorf("merged minute-level count = %d, want %d", got, wantTotal)
	}
	// The xmr metric arrived via plain rename.
	if bs, _ := st.TimelineBuckets("a", TimelineXMR, time.Second, 0, 0); len(bs) != 1 || bs[0].Sum != 3.5 {
		t.Errorf("renamed xmr metric = %s", renderBuckets(bs))
	}
	// Merging a missing source is a no-op.
	st.MergeTimeline("a", "missing")
}

// TestMergeKeepsRecording pins that the open bucket survives a merge: the
// merged timeline keeps accepting points for the newest window.
func TestMergeKeepsRecording(t *testing.T) {
	st := mustStore(t, testLevels())
	st.RecordTimeline("a", TimelineSamples, at(100), 1)
	st.RecordTimeline("b", TimelineSamples, at(100), 1)
	st.MergeTimeline("a", "b")
	st.RecordTimeline("a", TimelineSamples, at(100), 1)
	bs, _ := st.TimelineBuckets("a", TimelineSamples, time.Second, 0, 0)
	if len(bs) != 1 || bs[0].Count != 3 {
		t.Errorf("post-merge open bucket = %s", renderBuckets(bs))
	}
}

// TestMergeCarriesOpenBucketsUpward is the merge-loss regression: a bucket
// that was open in one timeline and loses its openness in the merge was
// formerly sealed into the ring without cascading, so its content vanished
// from every coarser level (permanently, once the fine ring evicted it).
// Carried content must reach every resolution.
func TestMergeCarriesOpenBucketsUpward(t *testing.T) {
	st := mustStore(t, testLevels())
	st.RecordTimeline("b", TimelineSamples, at(100), 1) // open 1s bucket at 100
	st.RecordTimeline("a", TimelineSamples, at(200), 1) // open 1s bucket at 200
	st.MergeTimeline("a", "b")
	// Seal 200..208 (evicting bucket 100 from the 1s ring, cap 4), leave
	// 209 open.
	for i := int64(1); i <= 9; i++ {
		st.RecordTimeline("a", TimelineSamples, at(200+i), 1)
	}

	total := func(res time.Duration) int64 {
		bs, ok := st.TimelineBuckets("a", TimelineSamples, res, 0, 0)
		if !ok {
			t.Fatalf("no %v level", res)
		}
		var n int64
		for _, b := range bs {
			n += b.Count
		}
		return n
	}
	// 11 recorded; the open 1s bucket (209) lawfully lags out of the 10s
	// level, but the carried 100 bucket must be there: 1 + 9 sealed = 10.
	if got := total(10 * time.Second); got != 10 {
		t.Errorf("10s level counts %d of 11 samples, want 10 (carried open bucket lost)", got)
	}
	// The carry keeps propagating: the 100 bucket's content must reach the
	// minute level too (the 200-window content still sits in the open 10s
	// bucket, which lawfully lags).
	if got := total(time.Minute); got != 1 {
		t.Errorf("1m level counts %d, want 1 (carry stopped short)", got)
	}
}

// TestMergeNoDuplicateStarts is the carried-bucket twin regression: a carry
// sealed at a coarse window that the ongoing cascade still feeds must be
// reopened by the cascade, not shadowed by a duplicate-start bucket.
func TestMergeNoDuplicateStarts(t *testing.T) {
	st := mustStore(t, testLevels())
	st.RecordTimeline("a", TimelineSamples, at(7), 1) // open 1s at 7
	st.RecordTimeline("b", TimelineSamples, at(5), 1) // open 1s at 5
	st.MergeTimeline("a", "b")                        // 5 carried: sealed 10s bucket at 0
	// Cascade more content into the 10s window 0, then past it.
	for _, sec := range []int64{8, 15, 25} {
		st.RecordTimeline("a", TimelineSamples, at(sec), 1)
	}
	// Expected totals: all 5 points at 1s; at 10s the open 1s bucket (25)
	// lawfully lags, leaving 4 (carried 5 + sealed 7, 8, 15). The minute
	// level only lags further.
	wants := map[time.Duration]int64{time.Second: 5, 10 * time.Second: 4}
	for _, res := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		bs, _ := st.TimelineBuckets("a", TimelineSamples, res, 0, 0)
		seen := map[int64]bool{}
		var total int64
		for _, b := range bs {
			if seen[b.Start] {
				t.Fatalf("%v level serves duplicate bucket start %d:\n%s", res, b.Start, renderBuckets(bs))
			}
			seen[b.Start] = true
			total += b.Count
		}
		if want, ok := wants[res]; ok && total != want {
			t.Errorf("%v level counts %d, want %d:\n%s", res, total, want, renderBuckets(bs))
		}
	}
}

func encodeState(t *testing.T, s *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStateRoundTrip requires export → restore → export to be bit-identical,
// and the restored store to keep recording exactly like the original.
func TestStateRoundTrip(t *testing.T) {
	build := func() *Store {
		st := mustStore(t, testLevels())
		for i := int64(0); i < 150; i++ {
			st.Record(SeriesSamples, at(500+i), float64(i))
			if i%3 == 0 {
				st.Record(SeriesKept, at(500+i), 1)
				st.RecordTimeline("c1", TimelineSamples, at(500+i), 1)
				st.RecordYear(time.Date(2014+int(i%6), 3, 1, 0, 0, 0, 0, time.UTC))
			}
		}
		return st
	}
	orig := build()
	exported := encodeState(t, orig.Export())

	restored := mustStore(t, testLevels())
	var state State
	if err := gob.NewDecoder(bytes.NewReader(exported)).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(&state); err != nil {
		t.Fatal(err)
	}
	if got := encodeState(t, restored.Export()); !bytes.Equal(got, exported) {
		t.Fatal("export→restore→export is not bit-identical")
	}

	// Continue recording on both; they must stay identical.
	for _, st := range []*Store{orig, restored} {
		for i := int64(150); i < 400; i++ {
			st.Record(SeriesSamples, at(500+i), float64(i))
		}
	}
	if !bytes.Equal(encodeState(t, orig.Export()), encodeState(t, restored.Export())) {
		t.Fatal("restored store diverged from the original under further recording")
	}
}

func TestRestoreRejectsMismatchedLadder(t *testing.T) {
	orig := mustStore(t, testLevels())
	orig.Record(SeriesSamples, at(1), 1)
	state := orig.Export()

	other := mustStore(t, []LevelSpec{{Resolution: time.Second, Buckets: 9}})
	if err := other.Restore(state); err == nil {
		t.Error("restore under a different retention ladder must fail")
	}

	full := mustStore(t, testLevels())
	full.Record(SeriesSamples, at(1), 1)
	if err := full.Restore(state); err == nil {
		t.Error("restore into a non-empty store must fail")
	}
}

func TestValidateLevels(t *testing.T) {
	bad := [][]LevelSpec{
		nil,
		{{Resolution: 0, Buckets: 1}},
		{{Resolution: time.Second, Buckets: 0}},
		{{Resolution: time.Second, Buckets: -3}},
		{{Resolution: 500 * time.Millisecond, Buckets: 1}},
		{{Resolution: time.Minute, Buckets: 1}, {Resolution: time.Second, Buckets: 1}},
		{{Resolution: 2 * time.Second, Buckets: 1}, {Resolution: 3 * time.Second, Buckets: 1}},
	}
	for i, levels := range bad {
		if err := ValidateLevels(levels); err == nil {
			t.Errorf("case %d: ladder %v should be invalid", i, levels)
		}
	}
	if err := ValidateLevels(DefaultLevels()); err != nil {
		t.Errorf("default ladder invalid: %v", err)
	}
}
