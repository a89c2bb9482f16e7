// Package entropy computes Shannon entropy over byte sequences.
//
// The measurement pipeline uses entropy as a fallback obfuscation detector:
// when no known packer signature is found, a sample whose content entropy is
// above a conservative threshold (7.5 bits/byte, where 8.0 is uniform random)
// is considered obfuscated, as described in §IV-E of the paper.
package entropy

import "math"

// ObfuscationThreshold is the conservative entropy threshold (bits per byte)
// above which a binary is considered obfuscated when no packer is identified.
const ObfuscationThreshold = 7.5

// Shannon returns the Shannon entropy of data in bits per byte, in [0, 8].
// The entropy of an empty slice is 0.
func Shannon(data []byte) float64 {
	if len(data) == 0 {
		return 0
	}
	var counts [256]int
	for _, b := range data {
		counts[b]++
	}
	n := float64(len(data))
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}
