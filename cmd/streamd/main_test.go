package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validValues is a baseline every case mutates: the flag defaults.
func validValues() flagValues {
	return flagValues{
		scale:     0.25,
		ckptEvery: 5 * time.Second,
	}
}

// TestValidateFlags pins the fail-fast behaviour: values that would feed
// undefined behaviour into the probe scheduler, the replay or checkpoint
// tickers or the API rate limiter are rejected at startup with an error
// naming the flag, while documented zero sentinels stay valid.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagValues)
		wantErr string // substring; "" = valid
	}{
		{"defaults", func(v *flagValues) {}, ""},
		{"zero sentinels stay valid", func(v *flagValues) {
			v.rate = 0
			v.ckptEvery, v.probeInterval, v.probeRate = 0, 0, 0
			v.probeWorkers = 0
		}, ""},
		{"extreme but representable rates stay valid", func(v *flagValues) { v.rate = 1e9 }, ""},

		{"negative probe-rate", func(v *flagValues) { v.probeRate = -1 }, "-probe-rate"},
		{"negative probe-workers", func(v *flagValues) { v.probeWorkers = -2 }, "-probe-workers"},
		{"negative probe-interval", func(v *flagValues) { v.probeInterval = -time.Second }, "-probe-interval"},
		{"negative checkpoint-every", func(v *flagValues) { v.ckptEvery = -5 * time.Second }, "-checkpoint-every"},
		{"negative rate", func(v *flagValues) { v.rate = -10 }, "-rate"},
		{"zero scale", func(v *flagValues) { v.scale = 0 }, "-scale"},
		{"negative scale", func(v *flagValues) { v.scale = -0.5 }, "-scale"},
		{"NaN scale", func(v *flagValues) { v.scale = math.NaN() }, "-scale"},

		{"+Inf scale", func(v *flagValues) { v.scale = math.Inf(1) }, "-scale"},
		{"NaN rate", func(v *flagValues) { v.rate = math.NaN() }, "-rate"},
		{"+Inf rate", func(v *flagValues) { v.rate = math.Inf(1) }, "-rate"},
		{"rate tick under 1ns", func(v *flagValues) { v.rate = 2e9 }, "-rate"},
		{"rate tick overflows", func(v *flagValues) { v.rate = 1e-300 }, "-rate"},
		{"NaN probe-rate", func(v *flagValues) { v.probeRate = math.NaN() }, "-probe-rate"},
		{"+Inf probe-rate", func(v *flagValues) { v.probeRate = math.Inf(1) }, "-probe-rate"},
		{"NaN api-rate", func(v *flagValues) { v.apiRate = math.NaN() }, "-api-rate"},
		{"+Inf api-rate", func(v *flagValues) { v.apiRate = math.Inf(1) }, "-api-rate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := validValues()
			tc.mutate(&v)
			err := validateFlags(v)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
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

// TestCheckFeedMetaLeftoverTemp pins the atomic feed.json write: a temp file
// a crash left behind mid-write is neither read nor fatal, the pin is written
// in full over it, and later boots read it back. (persist's
// TestStrayTempFilesIgnored covers Open clearing such strays.)
func TestCheckFeedMetaLeftoverTemp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "feed.json.tmp")
	if err := os.WriteFile(tmp, []byte(`{"seed":4`), 0o644); err != nil {
		t.Fatal(err)
	}
	for boot := 0; boot < 2; boot++ {
		if err := checkFeedMeta(dir, 42, 0.25, 543); err != nil {
			t.Fatalf("boot %d: %v", boot, err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "feed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got feedMeta
	if err := json.Unmarshal(raw, &got); err != nil || got != (feedMeta{Seed: 42, Scale: 0.25, Samples: 543}) {
		t.Fatalf("feed.json = %s (%v)", raw, err)
	}
	if err := checkFeedMeta(dir, 7, 0.25, 543); err == nil {
		t.Fatal("a different feed was accepted")
	}
}
