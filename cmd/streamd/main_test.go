package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"cryptomining/internal/timeseries"
)

// validValues is a baseline every case mutates: the flag defaults.
func validValues() flagValues {
	return flagValues{
		scale:           0.25,
		ckptEvery:       5 * time.Second,
		seriesRetention: defaultSeriesRetention,
	}
}

// TestValidateFlags pins the fail-fast behaviour: values that would feed
// undefined behaviour into the probe scheduler, the checkpoint ticker or the
// series store are rejected at startup with an error naming the flag, while
// documented zero sentinels stay valid.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagValues)
		wantErr string // substring; "" = valid
	}{
		{"defaults", func(v *flagValues) {}, ""},
		{"zero sentinels stay valid", func(v *flagValues) {
			v.shards, v.queue, v.rate = 0, 0, 0
			v.ckptEvery, v.probeInterval, v.probeRate = 0, 0, 0
			v.probeWorkers = 0
		}, ""},

		{"negative probe-rate", func(v *flagValues) { v.probeRate = -1 }, "-probe-rate"},
		{"negative probe-workers", func(v *flagValues) { v.probeWorkers = -2 }, "-probe-workers"},
		{"negative probe-interval", func(v *flagValues) { v.probeInterval = -time.Second }, "-probe-interval"},
		{"negative checkpoint-every", func(v *flagValues) { v.ckptEvery = -5 * time.Second }, "-checkpoint-every"},
		{"negative rate", func(v *flagValues) { v.rate = -10 }, "-rate"},
		{"negative queue", func(v *flagValues) { v.queue = -1 }, "-queue"},
		{"negative shards", func(v *flagValues) { v.shards = -4 }, "-shards"},
		{"zero scale", func(v *flagValues) { v.scale = 0 }, "-scale"},
		{"negative scale", func(v *flagValues) { v.scale = -0.5 }, "-scale"},
		{"NaN scale", func(v *flagValues) { v.scale = math.NaN() }, "-scale"},

		{"retention gibberish", func(v *flagValues) { v.seriesRetention = "wat" }, "-series-retention"},
		{"retention zero buckets", func(v *flagValues) { v.seriesRetention = "1s:0" }, "-series-retention"},
		{"retention negative buckets", func(v *flagValues) { v.seriesRetention = "1s:-5" }, "-series-retention"},
		{"retention zero resolution", func(v *flagValues) { v.seriesRetention = "0s:10" }, "-series-retention"},
		{"retention not coarsening", func(v *flagValues) { v.seriesRetention = "1m:10,1s:10" }, "-series-retention"},
		{"retention non-multiple", func(v *flagValues) { v.seriesRetention = "2s:10,3s:10" }, "-series-retention"},
		{"retention empty", func(v *flagValues) { v.seriesRetention = "" }, "-series-retention"},
		{"bad retention ignored with -no-series", func(v *flagValues) {
			v.noSeries = true
			v.seriesRetention = "wat"
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := validValues()
			tc.mutate(&v)
			levels, err := validateFlags(v)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if !v.noSeries && levels == nil {
					t.Fatal("valid flags with series enabled returned no retention ladder")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseRetention checks the spec syntax, including day units, and that
// the default spec round-trips to timeseries.DefaultLevels.
func TestParseRetention(t *testing.T) {
	levels, err := parseRetention(defaultSeriesRetention)
	if err != nil {
		t.Fatal(err)
	}
	want := timeseries.DefaultLevels()
	if len(levels) != len(want) {
		t.Fatalf("default spec parses to %d levels, want %d", len(levels), len(want))
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Errorf("level %d = %+v, want %+v", i, levels[i], want[i])
		}
	}

	levels, err = parseRetention("30s:10, 5m:6, 1h:24, 2d:30")
	if err != nil {
		t.Fatal(err)
	}
	if levels[3].Resolution != 48*time.Hour || levels[3].Buckets != 30 {
		t.Errorf("day unit parsed to %+v", levels[3])
	}
}
