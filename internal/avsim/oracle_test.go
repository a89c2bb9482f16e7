package avsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"cryptomining/internal/model"
)

// oracleHashFraction, oracleLabel and oracleScan are hashFraction, label and
// Scan as they were first written: a concatenated string hashed, a label
// formatted by fmt. The verdicts must not move from theirs.
func oracleHashFraction(sha256Hex, vendor, salt string) float64 {
	h := sha256.Sum256([]byte(sha256Hex + "|" + vendor + "|" + salt))
	v := binary.BigEndian.Uint64(h[:8])
	return float64(v) / float64(^uint64(0))
}

func (s *Scanner) oracleLabel(sha256Hex, vendor string, truth SampleTruth) string {
	family := truth.Family
	if family == "" {
		pick := oracleHashFraction(sha256Hex, vendor, "family")
		if truth.Miner && oracleHashFraction(sha256Hex, vendor, "minerlabel") < s.Profile.MinerLabelRate {
			family = minerFamilies[int(pick*float64(len(minerFamilies)))%len(minerFamilies)]
		} else {
			family = genericFamilies[int(pick*float64(len(genericFamilies)))%len(genericFamilies)]
		}
	}
	variant := strings.ToUpper(sha256Hex[:6])
	return fmt.Sprintf("%s.%s", family, variant)
}

func (s *Scanner) oracleScan(sha256Hex string, truth SampleTruth, queriedAt time.Time) *model.AVReport {
	vendors := s.Vendors
	if len(vendors) == 0 {
		vendors = Vendors
	}
	report := &model.AVReport{SHA256: sha256Hex, QueriedAt: queriedAt}
	detectRate := s.Profile.DetectionRate
	if truth.Stealthy {
		detectRate *= 0.12
	}
	for _, vendor := range vendors {
		v := model.AVVerdict{Vendor: vendor}
		roll := oracleHashFraction(sha256Hex, vendor, "detect")
		if truth.Malicious {
			v.Detected = roll < detectRate
		} else {
			v.Detected = roll < s.Profile.FalsePositiveRate
		}
		if v.Detected {
			v.Label = s.oracleLabel(sha256Hex, vendor, truth)
		}
		report.Verdicts = append(report.Verdicts, v)
	}
	return report
}

// The corpus test lives in package avsim_test, because it draws its hashes
// from ecosim, which imports avsim.
var (
	HashFraction       = hashFraction
	OracleHashFraction = oracleHashFraction
)

func (s *Scanner) Label(sha256Hex, vendor string, truth SampleTruth) string {
	return s.label(sha256Hex, vendor, truth)
}

func (s *Scanner) OracleLabel(sha256Hex, vendor string, truth SampleTruth) string {
	return s.oracleLabel(sha256Hex, vendor, truth)
}

func (s *Scanner) OracleScan(sha256Hex string, truth SampleTruth, queriedAt time.Time) *model.AVReport {
	return s.oracleScan(sha256Hex, truth, queriedAt)
}
