package avsim_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"cryptomining/internal/avsim"
	"cryptomining/internal/ecosim"
)

// benchHashes returns the sample hashes of the benchmark's two corpora
// (cmd/bench: the first 4 000 streamed samples and the materialised universe
// at a tenth of its scale, both from ecosystem seed 2019).
func benchHashes() []string {
	var hashes []string
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019})
	for i := 0; i < 4000; i++ {
		hashes = append(hashes, gen.Next().Sample.SHA256)
	}
	cfg := ecosim.DefaultConfig().Scale(0.1)
	cfg.Seed = 2019
	return append(hashes, ecosim.Generate(cfg).Corpus.Hashes()...)
}

// TestVerdictsMatchOracle: over every bench-corpus hash, every vendor and
// every salt, hashFraction returns the oracle's float bit for bit, and label
// the oracle's string; every tenth hash is also scanned whole, under each
// kind of truth, and must give the oracle's report.
func TestVerdictsMatchOracle(t *testing.T) {
	s := avsim.NewScanner()
	truths := []avsim.SampleTruth{
		{},
		{Malicious: true},
		{Malicious: true, Miner: true},
		{Malicious: true, Miner: true, Stealthy: true},
		{Malicious: true, Family: "Forced"},
	}
	at := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	hashes := benchHashes()
	for i, sha := range hashes {
		for _, vendor := range avsim.Vendors {
			for _, salt := range []string{"detect", "family", "minerlabel"} {
				got, want := avsim.HashFraction(sha, vendor, salt), avsim.OracleHashFraction(sha, vendor, salt)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("hashFraction(%s, %s, %s) = %v, oracle %v", sha, vendor, salt, got, want)
				}
			}
			for _, miner := range []bool{false, true} {
				truth := avsim.SampleTruth{Malicious: true, Miner: miner}
				if got, want := s.Label(sha, vendor, truth), s.OracleLabel(sha, vendor, truth); got != want {
					t.Fatalf("label(%s, %s, %+v) = %q, oracle %q", sha, vendor, truth, got, want)
				}
			}
		}
		if i%10 != 0 {
			continue
		}
		for _, truth := range truths {
			if got, want := s.Scan(sha, truth, at), s.OracleScan(sha, truth, at); !reflect.DeepEqual(got, want) {
				t.Fatalf("Scan(%s, %+v)\n got  %+v\n want %+v", sha, truth, got, want)
			}
		}
	}
	t.Logf("agreed over %d hashes × %d vendors", len(hashes), len(avsim.Vendors))
}

// TestLabelNonASCIIVariant: a hash whose first six bytes are not ASCII is
// upper-cased as strings.ToUpper does it, invalid UTF-8 included.
func TestLabelNonASCIIVariant(t *testing.T) {
	s := avsim.NewScanner()
	truth := avsim.SampleTruth{Malicious: true, Family: "F"}
	for _, sha := range []string{"abécdef", "\xff\xfeabcdef", "abcd\xe2\x82", "ABCDEF"} {
		if got, want := s.Label(sha, "ESET", truth), s.OracleLabel(sha, "ESET", truth); got != want {
			t.Errorf("label(%q) = %q, oracle %q", sha, got, want)
		}
	}
}
