package avsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cryptomining/internal/model"
)

func scanMany(s *Scanner, truth SampleTruth, n int) []*model.AVReport {
	out := make([]*model.AVReport, 0, n)
	for i := 0; i < n; i++ {
		sha := fmt.Sprintf("%064x", i)
		out = append(out, s.Scan(sha, truth, time.Time{}))
	}
	return out
}

func TestScanDeterministic(t *testing.T) {
	s := NewScanner()
	truth := SampleTruth{Malicious: true, Miner: true}
	r1 := s.Scan(strings.Repeat("ab", 32), truth, time.Time{})
	r2 := s.Scan(strings.Repeat("ab", 32), truth, time.Time{})
	if r1.Positives() != r2.Positives() {
		t.Errorf("scan not deterministic: %d vs %d", r1.Positives(), r2.Positives())
	}
	for i := range r1.Verdicts {
		if r1.Verdicts[i] != r2.Verdicts[i] {
			t.Fatalf("verdict %d differs between runs", i)
		}
	}
}

func TestMaliciousSamplesUsuallyExceedThreshold(t *testing.T) {
	s := NewScanner()
	reports := scanMany(s, SampleTruth{Malicious: true, Miner: true}, 200)
	passing := 0
	for _, r := range reports {
		if r.Positives() >= DefaultMalwareThreshold {
			passing++
		}
	}
	if passing < 190 {
		t.Errorf("only %d/200 malicious samples exceed the 10-AV threshold", passing)
	}
}

func TestBenignSamplesRarelyExceedThreshold(t *testing.T) {
	s := NewScanner()
	reports := scanMany(s, SampleTruth{Malicious: false}, 200)
	falsePositives := 0
	for _, r := range reports {
		if r.Positives() >= DefaultMalwareThreshold {
			falsePositives++
		}
	}
	if falsePositives > 2 {
		t.Errorf("%d/200 benign samples exceed the threshold, expected ~0", falsePositives)
	}
}

func TestStealthySamplesEvadeThreshold(t *testing.T) {
	s := NewScanner()
	normal := scanMany(s, SampleTruth{Malicious: true, Miner: true}, 100)
	stealthy := scanMany(s, SampleTruth{Malicious: true, Miner: true, Stealthy: true}, 100)
	avg := func(rs []*model.AVReport) float64 {
		sum := 0
		for _, r := range rs {
			sum += r.Positives()
		}
		return float64(sum) / float64(len(rs))
	}
	if avg(stealthy) >= avg(normal)/2 {
		t.Errorf("stealthy samples should have far fewer positives: stealthy=%v normal=%v",
			avg(stealthy), avg(normal))
	}
}

func TestMinerSamplesGetMinerLabels(t *testing.T) {
	s := NewScanner()
	miners := scanMany(s, SampleTruth{Malicious: true, Miner: true}, 100)
	nonMiners := scanMany(s, SampleTruth{Malicious: true, Miner: false}, 100)
	minerLabelled := 0
	for _, r := range miners {
		if r.MinerLabels() >= DefaultMalwareThreshold {
			minerLabelled++
		}
	}
	if minerLabelled < 80 {
		t.Errorf("only %d/100 mining samples have >=10 miner labels", minerLabelled)
	}
	for _, r := range nonMiners {
		if r.MinerLabels() > r.Positives()/3 {
			t.Errorf("non-miner sample has too many miner labels: %d of %d", r.MinerLabels(), r.Positives())
			break
		}
	}
}

func TestForcedFamilyLabel(t *testing.T) {
	s := NewScanner()
	r := s.Scan(strings.Repeat("cd", 32), SampleTruth{Malicious: true, Miner: true, Family: "Adylkuzz"}, time.Time{})
	for _, v := range r.Verdicts {
		if v.Detected && !strings.HasPrefix(v.Label, "Adylkuzz.") {
			t.Errorf("label = %q, want Adylkuzz.* prefix", v.Label)
		}
	}
}

func TestScanUsesAllVendors(t *testing.T) {
	s := NewScanner()
	r := s.Scan(strings.Repeat("ef", 32), SampleTruth{Malicious: true}, time.Time{})
	if len(r.Verdicts) != len(Vendors) {
		t.Errorf("verdicts = %d, want %d", len(r.Verdicts), len(Vendors))
	}
	custom := &Scanner{Profile: DefaultProfile(), Vendors: []string{"OnlyOne"}}
	r2 := custom.Scan(strings.Repeat("ef", 32), SampleTruth{Malicious: true}, time.Time{})
	if len(r2.Verdicts) != 1 {
		t.Errorf("custom vendor roster produced %d verdicts", len(r2.Verdicts))
	}
	empty := &Scanner{Profile: DefaultProfile()}
	r3 := empty.Scan(strings.Repeat("ef", 32), SampleTruth{Malicious: true}, time.Time{})
	if len(r3.Verdicts) != len(Vendors) {
		t.Errorf("empty roster should fall back to default, got %d", len(r3.Verdicts))
	}
}

func TestClassifyThresholdRule(t *testing.T) {
	report := &model.AVReport{}
	for i := 0; i < 12; i++ {
		report.Verdicts = append(report.Verdicts, model.AVVerdict{
			Vendor: fmt.Sprintf("V%d", i), Detected: i < 11, Label: "CoinMiner.X",
		})
	}
	c := Classify(report, 10, false, false)
	if !c.IsMalware || !c.LabeledMiner {
		t.Errorf("11 positives should classify as malware and miner: %+v", c)
	}
	cLow := Classify(report, 20, false, false)
	if cLow.IsMalware {
		t.Error("higher threshold should reject 11 positives")
	}
}

func TestClassifyWhitelistOverrides(t *testing.T) {
	report := &model.AVReport{}
	for i := 0; i < 30; i++ {
		report.Verdicts = append(report.Verdicts, model.AVVerdict{Vendor: fmt.Sprintf("V%d", i), Detected: true, Label: "CoinMiner"})
	}
	c := Classify(report, 10, true, false)
	if c.IsMalware {
		t.Error("whitelisted stock tools must never be classified as malware")
	}
}

func TestClassifyIllicitWalletException(t *testing.T) {
	report := &model.AVReport{
		Verdicts: []model.AVVerdict{
			{Vendor: "A", Detected: true, Label: "Trojan.Generic"},
			{Vendor: "B", Detected: false},
		},
	}
	without := Classify(report, 10, false, false)
	if without.IsMalware {
		t.Error("1 positive without wallet exception should not be malware")
	}
	with := Classify(report, 10, false, true)
	if !with.IsMalware {
		t.Error("sample with illicit wallet and >=1 positive should be kept as malware")
	}
	// Zero positives never qualifies, wallet or not.
	clean := Classify(&model.AVReport{}, 10, false, true)
	if clean.IsMalware {
		t.Error("zero positives should never be malware")
	}
}

func TestClassifyDefaultThreshold(t *testing.T) {
	report := &model.AVReport{}
	for i := 0; i < 10; i++ {
		report.Verdicts = append(report.Verdicts, model.AVVerdict{Vendor: fmt.Sprintf("V%d", i), Detected: true, Label: "X"})
	}
	c := Classify(report, 0, false, false) // 0 -> default threshold of 10
	if !c.IsMalware {
		t.Error("10 positives should satisfy the default threshold")
	}
}

// scanAllocs bounds the allocations of one Scan beyond one per label: the
// report and its verdicts. Measured on go1.24: 2.
const scanAllocs = 2

func TestScanAllocBudget(t *testing.T) {
	s := NewScanner()
	sha := strings.Repeat("3f", 32)
	for _, truth := range []SampleTruth{{}, {Malicious: true, Miner: true}, {Malicious: true, Family: "Forced"}} {
		labels := s.Scan(sha, truth, time.Time{}).Positives()
		allocs := testing.AllocsPerRun(100, func() { s.Scan(sha, truth, time.Time{}) })
		if budget := scanAllocs + labels; allocs > float64(budget) {
			t.Errorf("Scan(%+v) allocates %v times for %d labels, budget %d", truth, allocs, labels, budget)
		}
		t.Logf("Scan(%+v): %v allocations for %d labels", truth, allocs, labels)
	}
}

func BenchmarkScan(b *testing.B) {
	s := NewScanner()
	truth := SampleTruth{Malicious: true, Miner: true}
	for i := 0; i < b.N; i++ {
		s.Scan(fmt.Sprintf("%064x", i), truth, time.Time{})
	}
}
