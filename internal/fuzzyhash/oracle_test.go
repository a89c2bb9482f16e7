package fuzzyhash

import (
	"bytes"
	"math/rand"
	"testing"
)

// The oracle is the CTPH this package shipped before its scan was rewritten:
// one pass per block size, two divisions per byte, a map of 7-grams per
// comparison. Hash and Compare must agree with it on every input.

type oracleRollingHash struct {
	window [windowSize]byte
	h1     uint32
	h2     uint32
	h3     uint32
	n      uint32
}

func (r *oracleRollingHash) update(c byte) uint32 {
	idx := r.n % windowSize
	old := r.window[idx]
	r.window[idx] = c
	r.n++
	r.h2 -= r.h1
	r.h2 += windowSize * uint32(c)
	r.h1 += uint32(c)
	r.h1 -= uint32(old)
	r.h3 <<= 5
	r.h3 ^= uint32(c)
	return r.h1 + r.h2 + r.h3
}

type oraclePieceHash uint32

func (p oraclePieceHash) update(c byte) oraclePieceHash {
	return (p ^ oraclePieceHash(c)) * oraclePieceHash(fnvPrime)
}

func (p oraclePieceHash) symbol() byte { return alphabet[uint32(p)%64] }

func hashOracle(data []byte) Signature {
	bs := chooseBlockSize(len(data))
	for {
		sig := oracleHashWithBlockSize(data, bs)
		if len(sig.Pieces) < signatureLength/4 && bs > minBlockSize {
			bs /= 2
			continue
		}
		return sig
	}
}

func oracleHashWithBlockSize(data []byte, bs int) Signature {
	var rh oracleRollingHash
	p1 := oraclePieceHash(fnvOffset)
	p2 := oraclePieceHash(fnvOffset)
	var pieces, pieces2 []byte
	for _, c := range data {
		h := rh.update(c)
		p1 = p1.update(c)
		p2 = p2.update(c)
		if h%uint32(bs) == uint32(bs-1) {
			if len(pieces) < signatureLength-1 {
				pieces = append(pieces, p1.symbol())
				p1 = oraclePieceHash(fnvOffset)
			}
		}
		if h%uint32(bs*2) == uint32(bs*2-1) {
			if len(pieces2) < signatureLength/2-1 {
				pieces2 = append(pieces2, p2.symbol())
				p2 = oraclePieceHash(fnvOffset)
			}
		}
	}
	if len(data) > 0 {
		pieces = append(pieces, p1.symbol())
		pieces2 = append(pieces2, p2.symbol())
	}
	return Signature{BlockSize: bs, Pieces: string(pieces), Pieces2: string(pieces2)}
}

func compareOracle(a, b Signature) int {
	if a.BlockSize == b.BlockSize {
		return max(oracleScoreStrings(a.Pieces, b.Pieces), oracleScoreStrings(a.Pieces2, b.Pieces2))
	}
	if a.BlockSize == b.BlockSize*2 {
		return oracleScoreStrings(a.Pieces, b.Pieces2)
	}
	if b.BlockSize == a.BlockSize*2 {
		return oracleScoreStrings(a.Pieces2, b.Pieces)
	}
	return 0
}

func oracleScoreStrings(s1, s2 string) int {
	if s1 == "" || s2 == "" {
		if s1 == s2 {
			return 100
		}
		return 0
	}
	if s1 == s2 {
		return 100
	}
	if !oracleHasCommonSubstring(s1, s2, 7) {
		return 0
	}
	d := oracleEditDistance(s1, s2)
	score := 100 * (1 - float64(d)/float64(len(s1)+len(s2)))
	if score < 0 {
		score = 0
	}
	return int(score)
}

func oracleHasCommonSubstring(s1, s2 string, n int) bool {
	if len(s1) < n || len(s2) < n {
		return false
	}
	seen := make(map[string]bool, len(s1))
	for i := 0; i+n <= len(s1); i++ {
		seen[s1[i:i+n]] = true
	}
	for i := 0; i+n <= len(s2); i++ {
		if seen[s2[i:i+n]] {
			return true
		}
	}
	return false
}

func oracleEditDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// checkHash fails the test unless Hash agrees with the oracle on data. It
// reports whether the oracle retried at a smaller block size.
func checkHash(t testing.TB, data []byte) (retried bool) {
	t.Helper()
	got, want := Hash(data), hashOracle(data)
	if got != want {
		t.Fatalf("Hash of %d bytes = %s, oracle %s", len(data), got, want)
	}
	return want.BlockSize < chooseBlockSize(len(data))
}

// checkCompare fails the test unless Compare agrees with the oracle on a, b.
func checkCompare(t testing.TB, a, b Signature) {
	t.Helper()
	if got, want := Compare(a, b), compareOracle(a, b); got != want {
		t.Fatalf("Compare(%s, %s) = %d, oracle %d", a, b, got, want)
	}
}

// CheckHash, CheckCompare and HashOracle hand the checks to the corpus test in package
// fuzzyhash_test (the corpora come from ecosim, which imports this package
// through osint).
var (
	CheckHash    = checkHash
	CheckCompare = checkCompare
	HashOracle   = hashOracle
)

// edgeLengths are the lengths where the scan's arithmetic changes: the empty
// input, less than and exactly one rolling window, and either side of every
// initial block size boundary 3·64·2^k up to 192 KB.
func edgeLengths() []int {
	lengths := []int{0, 1, 6, 7, 8}
	for n := minBlockSize * signatureLength; n <= 3<<16; n *= 2 {
		lengths = append(lengths, n-1, n, n+1)
	}
	return lengths
}

// TestHashDifferentialEdges: at every edge length, on random bytes (few
// retries), on runs of one byte (the rolling hash settles, so every block size
// down to the minimum is retried) and on a short repeated pattern, Hash and
// Compare agree with the oracle.
func TestHashDifferentialEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sigs []Signature
	for _, n := range edgeLengths() {
		random := make([]byte, n)
		rng.Read(random)
		for _, data := range [][]byte{
			random,
			bytes.Repeat([]byte{0xAB}, n),
			bytes.Repeat([]byte("mov eax, 1; "), n/12+1)[:n],
		} {
			checkHash(t, data)
			sigs = append(sigs, Hash(data))
		}
	}
	for _, a := range sigs {
		for _, b := range sigs {
			checkCompare(t, a, b)
		}
	}
}

// TestHashDifferentialGenerated: over synthetic binaries, and over each one
// with a region patched out (which keeps the pair comparable), Hash and
// Compare agree with the oracle.
func TestHashDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 100; i++ {
		data := synthBinary(int64(i), rng.Intn(100_000))
		patched := append([]byte(nil), data...)
		if len(patched) > 64 {
			at := rng.Intn(len(patched) - 64)
			copy(patched[at:at+rng.Intn(64)], bytes.Repeat([]byte{0x90}, 64))
		}
		checkHash(t, data)
		checkHash(t, patched)
		checkCompare(t, Hash(data), Hash(patched))
	}
}

// FuzzHashDifferential: on arbitrary bytes Hash agrees with the oracle, and
// so does Compare, between the two halves of the input and between the input
// and itself with one byte changed.
func FuzzHashDifferential(f *testing.F) {
	for _, n := range []int{0, 1, 7, 191, 193, 5000} {
		f.Add(synthBinary(int64(n), n))
	}
	f.Add(bytes.Repeat([]byte{0}, 1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkHash(t, data)
		a, b := data[:len(data)/2], data[len(data)/2:]
		checkHash(t, a)
		checkHash(t, b)
		checkCompare(t, Hash(a), Hash(b))
		if len(data) > 0 {
			changed := append([]byte(nil), data...)
			changed[len(changed)/3] ^= 0x5A
			checkCompare(t, Hash(data), Hash(changed))
		}
	})
}

// TestCompareAllocatesNothing: comparing two comparable signatures that share
// a 7-gram runs the whole scoring path (substring test and edit distance)
// without a heap allocation.
func TestCompareAllocatesNothing(t *testing.T) {
	original := synthBinary(3, 200000)
	modified := append([]byte(nil), original...)
	copy(modified[100000:100040], bytes.Repeat([]byte{0x90}, 40))
	a, b := Hash(original), Hash(modified)
	if a == b || Compare(a, b) == 0 {
		t.Fatalf("fixture must differ and be similar: %s vs %s", a, b)
	}
	if n := testing.AllocsPerRun(100, func() { Compare(a, b) }); n != 0 {
		t.Errorf("Compare allocates %v times per call, want 0", n)
	}
}
