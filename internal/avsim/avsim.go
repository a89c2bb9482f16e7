// Package avsim simulates a multi-engine antivirus scanning service in the
// style of VirusTotal reports.
//
// The paper's sanity checks classify a sample as malware when at least 10
// independent AV engines flag it (§III-B), count engines whose label mentions
// mining, and exceptionally keep low-positive samples that contain a wallet
// seen in confirmed malware. Because real VirusTotal verdicts are unavailable,
// this package fabricates per-vendor verdicts with configurable detection and
// false-positive rates, deterministically derived from the sample hash so the
// pipeline is reproducible run-to-run.
package avsim

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"time"

	"cryptomining/internal/model"
)

// DefaultMalwareThreshold is the number of AV positives above which a sample
// is considered malware by the sanity checks.
const DefaultMalwareThreshold = 10

// Vendors is the roster of simulated AV engines. 60 engines approximates the
// size of the VirusTotal engine set.
var Vendors = []string{
	"Acronis", "AegisLab", "AhnLab", "Alibaba", "Antiy", "Arcabit", "Avast",
	"AVG", "Avira", "Baidu", "BitDefender", "Bkav", "ClamAV", "CMC", "Comodo",
	"CrowdStrike", "Cybereason", "Cylance", "Cyren", "DrWeb", "eGambit",
	"Emsisoft", "Endgame", "eScan", "ESET", "FireEye", "Fortinet", "F-Prot",
	"F-Secure", "GData", "Ikarus", "Invincea", "Jiangmin", "K7", "Kaspersky",
	"Kingsoft", "Malwarebytes", "MAX", "McAfee", "Microsoft", "NANO",
	"Palo Alto", "Panda", "Qihoo-360", "Rising", "Sangfor", "SentinelOne",
	"Sophos", "Symantec", "TACHYON", "Tencent", "TheHacker", "TotalDefense",
	"TrendMicro", "VBA32", "VIPRE", "ViRobot", "Webroot", "Yandex", "Zillya",
}

// Profile configures how the simulated engines behave.
type Profile struct {
	// DetectionRate is the probability that an engine detects a sample that
	// is genuinely malicious.
	DetectionRate float64
	// FalsePositiveRate is the probability that an engine flags a benign
	// sample.
	FalsePositiveRate float64
	// MinerLabelRate is the probability that a detecting engine labels a
	// mining sample with a miner-specific family name instead of a generic
	// trojan label.
	MinerLabelRate float64
}

// DefaultProfile approximates the engine behaviour reported in threat-intel
// comparisons: high aggregate coverage, low per-engine FP rate.
func DefaultProfile() Profile {
	return Profile{DetectionRate: 0.55, FalsePositiveRate: 0.01, MinerLabelRate: 0.7}
}

// SampleTruth is the ground-truth character of a sample; the ecosystem
// simulator knows it, the scanner only uses it to bias the fabricated
// verdicts.
type SampleTruth struct {
	// Malicious marks samples that are genuinely malware.
	Malicious bool
	// Miner marks samples with crypto-mining capability.
	Miner bool
	// Stealthy lowers the effective detection rate (fresh crypters, low AV
	// coverage) — the mechanism behind profitable low-detection campaigns.
	Stealthy bool
	// Family optionally forces the family name used in labels.
	Family string
}

// Scanner fabricates AV reports.
type Scanner struct {
	Profile Profile
	// Vendors to simulate; defaults to the full roster.
	Vendors []string
}

// NewScanner returns a scanner with the default profile and vendor roster.
func NewScanner() *Scanner {
	return &Scanner{Profile: DefaultProfile(), Vendors: Vendors}
}

// hashFraction derives a deterministic pseudo-random fraction in [0,1) from
// the sample hash, the vendor and a salt. Determinism keeps the whole
// measurement reproducible for a fixed corpus. The digest is taken over
// sha256Hex|vendor|salt joined in a stack buffer, which holds a hex digest
// and every vendor name and salt without growing onto the heap.
func hashFraction(sha256Hex, vendor, salt string) float64 {
	var buf [128]byte
	key := append(buf[:0], sha256Hex...)
	key = append(append(key, '|'), vendor...)
	key = append(append(key, '|'), salt...)
	h := sha256.Sum256(key)
	v := binary.BigEndian.Uint64(h[:8])
	return float64(v) / float64(^uint64(0))
}

// minerFamilies are label stems used for mining malware.
var minerFamilies = []string{"CoinMiner", "BitCoinMiner", "Miner.XMRig", "CryptoMiner", "Trojan.CoinMiner"}

// genericFamilies are label stems used for non-mining malware detections.
var genericFamilies = []string{"Trojan.Generic", "Win32.Agent", "Backdoor.Bot", "Trojan.Dropper", "Worm.AutoRun"}

// Scan produces the simulated AV report for one sample.
func (s *Scanner) Scan(sha256Hex string, truth SampleTruth, queriedAt time.Time) *model.AVReport {
	vendors := s.Vendors
	if len(vendors) == 0 {
		vendors = Vendors
	}
	report := &model.AVReport{SHA256: sha256Hex, QueriedAt: queriedAt, Verdicts: make([]model.AVVerdict, 0, len(vendors))}
	detectRate := s.Profile.DetectionRate
	if truth.Stealthy {
		detectRate *= 0.12 // stealthy samples slip past most engines
	}
	for _, vendor := range vendors {
		v := model.AVVerdict{Vendor: vendor}
		roll := hashFraction(sha256Hex, vendor, "detect")
		if truth.Malicious {
			v.Detected = roll < detectRate
		} else {
			v.Detected = roll < s.Profile.FalsePositiveRate
		}
		if v.Detected {
			v.Label = s.label(sha256Hex, vendor, truth)
		}
		report.Verdicts = append(report.Verdicts, v)
	}
	return report
}

func (s *Scanner) label(sha256Hex, vendor string, truth SampleTruth) string {
	family := truth.Family
	if family == "" {
		pick := hashFraction(sha256Hex, vendor, "family")
		if truth.Miner && hashFraction(sha256Hex, vendor, "minerlabel") < s.Profile.MinerLabelRate {
			family = minerFamilies[int(pick*float64(len(minerFamilies)))%len(minerFamilies)]
		} else {
			family = genericFamilies[int(pick*float64(len(genericFamilies)))%len(genericFamilies)]
		}
	}
	// The variant is the digest's first six bytes upper-cased, as
	// strings.ToUpper does it; an ASCII variant (a hex digest's) is converted
	// on the stack, so the label is the one allocation.
	v := sha256Hex[:6]
	var up [6]byte
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= 0x80 {
			return family + "." + strings.ToUpper(v)
		}
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	return family + "." + string(up[:])
}

// Classification is the sanity-check outcome for one sample.
type Classification struct {
	Positives   int
	MinerLabels int
	// IsMalware applies the >= threshold rule.
	IsMalware bool
	// LabeledMiner applies the ">10 engines label it Miner" advanced-query
	// criterion from §III-B.
	LabeledMiner bool
}

// Classify applies the paper's threshold rules to a report. whitelisted marks
// known stock mining tools, which are never classified as malware;
// hasIllicitWallet applies the exception that keeps low-positive samples
// containing a wallet already seen in confirmed malware.
func Classify(report *model.AVReport, threshold int, whitelisted, hasIllicitWallet bool) Classification {
	if threshold <= 0 {
		threshold = DefaultMalwareThreshold
	}
	c := Classification{Positives: report.Positives(), MinerLabels: report.MinerLabels()}
	if whitelisted {
		return c
	}
	c.IsMalware = c.Positives >= threshold || (hasIllicitWallet && c.Positives > 0)
	c.LabeledMiner = c.MinerLabels >= threshold
	return c
}
