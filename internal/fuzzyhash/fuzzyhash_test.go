package fuzzyhash

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthBinary fabricates a deterministic pseudo-binary of the given size.
func synthBinary(seed int64, size int) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, size)
	// Mix of structured (repetitive) regions and random regions, like a real
	// executable's code/data/strings layout.
	for i := 0; i < size; {
		if rng.Intn(2) == 0 {
			chunk := []byte("push ebp; mov ebp, esp; call sub_401000; ret; ")
			n := copy(data[i:], chunk)
			i += n
		} else {
			n := rng.Intn(64) + 16
			if i+n > size {
				n = size - i
			}
			rng.Read(data[i : i+n])
			i += n
		}
	}
	return data
}

func TestHashDeterministic(t *testing.T) {
	data := synthBinary(1, 100000)
	h1 := Hash(data)
	h2 := Hash(append([]byte(nil), data...))
	if h1.String() != h2.String() {
		t.Errorf("Hash not deterministic: %s vs %s", h1, h2)
	}
}

func TestIdenticalContentMaxSimilarity(t *testing.T) {
	data := synthBinary(2, 50000)
	h := Hash(data)
	if got := Compare(h, h); got != 100 {
		t.Errorf("Compare(identical) = %d, want 100", got)
	}
	if d := Distance(h, h); d != 0 {
		t.Errorf("Distance(identical) = %v, want 0", d)
	}
	if !Match(h, h, DefaultThreshold) {
		t.Error("identical signatures should match at default threshold")
	}
}

func TestMinorModificationStillMatches(t *testing.T) {
	// Emulate a forked xmrig with the donation wallet string patched out:
	// same content except a small region changed.
	original := synthBinary(3, 200000)
	modified := append([]byte(nil), original...)
	copy(modified[100000:100040], bytes.Repeat([]byte{0x90}, 40))

	ho := Hash(original)
	hm := Hash(modified)
	d := Distance(ho, hm)
	if d > DefaultThreshold {
		t.Errorf("Distance(original, minor patch) = %v, want <= %v", d, DefaultThreshold)
	}
	if !Match(ho, hm, DefaultThreshold) {
		t.Error("Match should report a match for a minor patch")
	}
}

func TestUnrelatedContentDoesNotMatch(t *testing.T) {
	a := synthBinary(10, 150000)
	b := make([]byte, 150000)
	rand.New(rand.NewSource(11)).Read(b)
	d := Distance(Hash(a), Hash(b))
	if d <= DefaultThreshold {
		t.Errorf("Distance(unrelated) = %v, want > %v", d, DefaultThreshold)
	}
}

func TestDistanceBoundsProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		d := Distance(Hash(a), Hash(b))
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompareSymmetricProperty(t *testing.T) {
	f := func(a, b []byte) bool {
		ha, hb := Hash(a), Hash(b)
		return Compare(ha, hb) == Compare(hb, ha)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSelfSimilarityProperty(t *testing.T) {
	f := func(a []byte) bool {
		h := Hash(a)
		return Compare(h, h) == 100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyData(t *testing.T) {
	h := Hash(nil)
	if h.Pieces != "" || h.Pieces2 != "" {
		t.Errorf("Hash(nil) pieces = %q/%q, want empty", h.Pieces, h.Pieces2)
	}
	if got := Compare(h, h); got != 100 {
		t.Errorf("Compare(empty, empty) = %d, want 100", got)
	}
	nonEmpty := Hash(synthBinary(20, 10000))
	if got := Compare(h, nonEmpty); got != 0 {
		t.Errorf("Compare(empty, non-empty) = %d, want 0", got)
	}
}

func TestDifferentBlockSizesIncomparable(t *testing.T) {
	small := Hash(synthBinary(6, 500))
	large := Hash(synthBinary(7, 5_000_000))
	if small.BlockSize*4 > large.BlockSize {
		t.Skipf("block sizes too close for this fixture: %d vs %d", small.BlockSize, large.BlockSize)
	}
	if got := Compare(small, large); got != 0 {
		t.Errorf("Compare(incomparable block sizes) = %d, want 0", got)
	}
}

func TestChooseBlockSize(t *testing.T) {
	if bs := chooseBlockSize(0); bs != minBlockSize {
		t.Errorf("chooseBlockSize(0) = %d, want %d", bs, minBlockSize)
	}
	if bs := chooseBlockSize(100); bs != minBlockSize {
		t.Errorf("chooseBlockSize(100) = %d, want %d", bs, minBlockSize)
	}
	big := chooseBlockSize(10_000_000)
	if big <= minBlockSize || big*signatureLength < 10_000_000 {
		t.Errorf("chooseBlockSize(10M) = %d, too small", big)
	}
}

func TestEditDistance(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"abc", "abc", 0},
		{"abc", "abd", 1},
	}
	for _, tt := range tests {
		if got := editDistance(tt.a, tt.b); got != tt.want {
			t.Errorf("editDistance(%q, %q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestHasCommonSubstring(t *testing.T) {
	if hasCommonSubstring("abcdefgh", "xyz", 7) {
		t.Error("short second string should not have 7-char common substring")
	}
	if !hasCommonSubstring("xxABCDEFGxx", "yyABCDEFGyy", 7) {
		t.Error("expected common substring of length 7")
	}
	if hasCommonSubstring("abcdefghij", "klmnopqrst", 7) {
		t.Error("disjoint strings should not share substring")
	}
}

func BenchmarkHash1MB(b *testing.B) {
	data := synthBinary(9, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hash(data)
	}
}

func BenchmarkCompare(b *testing.B) {
	h1 := Hash(synthBinary(12, 1<<20))
	h2 := Hash(synthBinary(13, 1<<20))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(h1, h2)
	}
}
