// Package fuzzyhash implements context-triggered piecewise hashing (CTPH),
// a similarity-preserving hash in the style popularized by ssdeep.
//
// The measurement pipeline uses fuzzy hashing to attribute samples dropped by
// crypto-mining malware to stock mining tools (xmrig, claymore, ...), even
// when miscreants fork the tool and make minor modifications such as removing
// donation code (§III-E, Table IX). Two binaries that differ in a few regions
// produce signatures whose distance is small; the paper uses a conservative
// distance threshold of 0.1.
package fuzzyhash

import (
	"fmt"
	"math/bits"
	"strings"
)

// Alphabet used to encode piece hashes, 64 symbols as in base64.
const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

const (
	// minBlockSize is the smallest context-trigger block size.
	minBlockSize = 3
	// signatureLength is the target number of pieces per signature.
	signatureLength = 64
	// windowSize is the rolling-hash window.
	windowSize = 7
)

// DefaultThreshold is the conservative distance threshold used by the paper
// for stock-tool attribution: distances at or below it count as a match.
const DefaultThreshold = 0.1

// Signature is a context-triggered piecewise hash: a block size and two piece
// strings computed at block size and twice the block size, rendered as
// "blocksize:pieces:pieces2".
type Signature struct {
	BlockSize int
	Pieces    string
	Pieces2   string
}

// String renders the signature in the canonical "bs:p1:p2" form.
func (s Signature) String() string {
	return fmt.Sprintf("%d:%s:%s", s.BlockSize, s.Pieces, s.Pieces2)
}

// FNV-1a, accumulated per piece; a piece's symbol is its low six bits.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

// chooseBlockSize picks the initial context-trigger block size for n bytes so
// that the expected signature length is close to signatureLength.
func chooseBlockSize(n int) int {
	bs := minBlockSize
	for bs*signatureLength < n {
		bs *= 2
	}
	return bs
}

// Hash computes the CTPH signature of data. Hashing empty data is valid and
// yields an empty-piece signature.
//
// When the pieces at the chosen block size come out too short (data with too
// few trigger points), the block size is halved, as ssdeep does, until they
// do not or the block size is minimal. One scan cuts the pieces for two such
// retries alongside (see scan). A retry needs no second piece string either:
// fewer than signatureLength/4 trigger points at a block size never reach
// either piece limit, so the pieces at bs are the retry's pieces at 2·(bs/2).
func Hash(data []byte) Signature {
	bs := chooseBlockSize(len(data))
	sc := scan(data, bs)
	i := 1 // sc[i] holds the pieces at bs, sc[i-1] those at 2·bs
	for sc[i].n < signatureLength/4 && bs > minBlockSize {
		bs /= 2
		if i++; i == len(sc) {
			sc, i = scan(data, bs), 1
		}
	}
	return Signature{BlockSize: bs, Pieces: sc[i].String(), Pieces2: sc[i-1].String()}
}

// pieces is one piece string under construction.
type pieces struct {
	buf [signatureLength]byte
	n   int
}

func (p *pieces) String() string { return string(p.buf[:p.n]) }

// add appends the symbol of piece hash h; it reports false, adding nothing,
// once limit symbols are in (the piece then runs on to the end of the data).
func (p *pieces) add(h uint32, limit int) bool {
	if p.n >= limit {
		return false
	}
	p.buf[p.n] = alphabet[h%64]
	p.n++
	return true
}

// levels is how many block sizes one scan cuts pieces at: 2·bs, bs, bs/2 and
// bs/4, in that order.
const levels = 4

// scan runs the rolling hash over data once and cuts the pieces at block
// sizes 2·bs (half as many symbols as the others), bs, bs/2 and bs/4; it
// skips the block sizes below minBlockSize.
//
// A block size is 3·2^k, so "h mod bs == bs-1" holds exactly when the low k
// bits of h are all ones and (h >> k) mod 3 == 2: a mask test plus a constant
// modulus instead of a division. The triggers nest, since bs divides 2·bs:
// every trigger at a block size is one at each smaller block size, so the
// bytes between two triggers at the smallest block size only pay the rolling
// hash and the piece hashes (scanner.next).
func scan(data []byte, bs int) [levels]pieces {
	s := scanner{p: [levels]uint32{fnvOffset, fnvOffset, fnvOffset, fnvOffset}}
	s.top = uint(bits.TrailingZeros(uint(bs/minBlockSize))) + 1
	s.lo = max(s.top, levels-1) - (levels - 1)
	// next reads the byte leaving the window back from its input. The first
	// windowSize bytes enter an empty window: they are fed from a copy behind
	// windowSize zeros.
	var head [2 * windowSize]byte
	n := copy(head[windowSize:], data)
	s.run(head[:windowSize+n])
	s.run(data)
	if len(data) > 0 {
		for j := range s.out {
			s.out[j].add(s.p[j], signatureLength)
		}
	}
	return s.out
}

// scanner is one scan's state: the rolling hash over the last windowSize
// bytes, and per block size 3·2^(top-j) the piece hash p[j] and the pieces
// out[j]. lo is the exponent of the smallest block size cut.
type scanner struct {
	h1, h2, h3 uint32
	p          [levels]uint32
	out        [levels]pieces
	top, lo    uint
}

// run feeds data[windowSize:] to the scanner, cutting a piece at every
// trigger.
func (s *scanner) run(data []byte) {
	for i := windowSize; i < len(data); {
		var h uint32
		var hit bool
		if i, h, hit = s.next(data, i); !hit {
			return
		}
		// h triggers at 3·2^lo; walk up the block sizes it also triggers at.
		for e := s.lo; e <= s.top; e++ {
			if e > s.lo && (h>>(e-1)&1 == 0 || (h>>e)%3 != 2) {
				break
			}
			j, limit := s.top-e, signatureLength-1
			if j == 0 {
				limit = signatureLength/2 - 1
			}
			if s.out[j].add(s.p[j], limit) {
				s.p[j] = fnvOffset
			}
		}
	}
}

// next feeds data[from:] to the hashes up to the first byte whose rolling
// hash h triggers at the smallest block size, and returns the index after
// that byte, h, and whether it stopped on a trigger. from is at least
// windowSize. The state lives in locals for the loop, which keeps it in
// registers.
func (s *scanner) next(data []byte, from int) (to int, h uint32, hit bool) {
	h1, h2, h3 := s.h1, s.h2, s.h3
	p0, p1, p2, p3 := s.p[0], s.p[1], s.p[2], s.p[3]
	lo := s.lo
	mask := uint32(1)<<lo - 1
	i := from
	for ; i < len(data); i++ {
		x, old := uint32(data[i]), uint32(data[i-windowSize])
		h2 += windowSize*x - h1
		h1 += x - old
		h3 = h3<<5 ^ x
		p0 = (p0 ^ x) * fnvPrime
		p1 = (p1 ^ x) * fnvPrime
		p2 = (p2 ^ x) * fnvPrime
		p3 = (p3 ^ x) * fnvPrime
		h = h1 + h2 + h3
		if h&mask == mask && (h>>lo)%3 == 2 {
			hit = true
			i++
			break
		}
	}
	s.h1, s.h2, s.h3 = h1, h2, h3
	s.p = [levels]uint32{p0, p1, p2, p3}
	return i, h, hit
}

// Compare returns a similarity score in [0, 100] between two signatures,
// where 100 means (nearly) identical content and 0 means no measurable
// similarity. Signatures whose block sizes differ by more than a factor of two
// are incomparable and score 0.
func Compare(a, b Signature) int {
	if a.BlockSize == b.BlockSize {
		s1 := scoreStrings(a.Pieces, b.Pieces, a.BlockSize)
		s2 := scoreStrings(a.Pieces2, b.Pieces2, a.BlockSize*2)
		return maxInt(s1, s2)
	}
	if a.BlockSize == b.BlockSize*2 {
		return scoreStrings(a.Pieces, b.Pieces2, a.BlockSize)
	}
	if b.BlockSize == a.BlockSize*2 {
		return scoreStrings(a.Pieces2, b.Pieces, b.BlockSize)
	}
	return 0
}

// Distance converts the Compare similarity into a distance in [0, 1]; 0 means
// identical, 1 means unrelated. This is the quantity thresholded at 0.1 for
// stock mining tool attribution.
func Distance(a, b Signature) float64 {
	return 1 - float64(Compare(a, b))/100
}

// Match reports whether two signatures are within the given distance
// threshold. A non-positive threshold uses DefaultThreshold.
func Match(a, b Signature, threshold float64) bool {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	return Distance(a, b) <= threshold
}

// scoreStrings scores two piece strings. It requires a common substring of at
// least 7 symbols (to suppress coincidental matches, as ssdeep does), then
// maps the edit distance to a 0-100 scale.
func scoreStrings(s1, s2 string, _ int) int {
	if s1 == "" || s2 == "" {
		if s1 == s2 {
			return 100
		}
		return 0
	}
	if s1 == s2 {
		return 100
	}
	if !hasCommonSubstring(s1, s2, 7) {
		return 0
	}
	d := editDistance(s1, s2)
	// Normalize: rescale edit distance to the combined length.
	score := 100 * (1 - float64(d)/float64(len(s1)+len(s2)))
	if score < 0 {
		score = 0
	}
	return int(score)
}

// hasCommonSubstring reports whether s1 and s2 share a common substring of at
// least n symbols.
func hasCommonSubstring(s1, s2 string, n int) bool {
	for i := 0; i+n <= len(s1); i++ {
		if strings.Contains(s2, s1[i:i+n]) {
			return true
		}
	}
	return false
}

// editDistance computes the Levenshtein distance between a and b. Piece
// strings are at most signatureLength symbols, so its two rows live on the
// stack.
func editDistance(a, b string) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var prevRow, curRow [signatureLength + 1]int
	prev, cur := prevRow[:], curRow[:]
	if len(b) > signatureLength {
		prev, cur = make([]int, len(b)+1), make([]int, len(b)+1)
	}
	prev, cur = prev[:len(b)+1], cur[:len(b)+1]
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
			cur[j] = minInt(minInt(cur[j-1]+1, prev[j]+1), prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
