package entropy

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShannonEmpty(t *testing.T) {
	if got := Shannon(nil); got != 0 {
		t.Errorf("Shannon(nil) = %v, want 0", got)
	}
	if got := Shannon([]byte{}); got != 0 {
		t.Errorf("Shannon(empty) = %v, want 0", got)
	}
}

func TestShannonUniformSingleByte(t *testing.T) {
	data := bytes.Repeat([]byte{0x41}, 1024)
	if got := Shannon(data); got != 0 {
		t.Errorf("Shannon(repeated byte) = %v, want 0", got)
	}
}

func TestShannonTwoSymbols(t *testing.T) {
	// Equal mix of two symbols has exactly 1 bit of entropy.
	data := append(bytes.Repeat([]byte{0}, 500), bytes.Repeat([]byte{1}, 500)...)
	if got := Shannon(data); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("Shannon(two symbols) = %v, want 1.0", got)
	}
}

func TestShannonAllBytes(t *testing.T) {
	// One of each byte value: exactly 8 bits.
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	if got := Shannon(data); math.Abs(got-8.0) > 1e-9 {
		t.Errorf("Shannon(all bytes once) = %v, want 8.0", got)
	}
}

func TestShannonRandomHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64*1024)
	rng.Read(data)
	got := Shannon(data)
	if got < 7.9 {
		t.Errorf("Shannon(random 64k) = %v, want > 7.9", got)
	}
	if got <= ObfuscationThreshold {
		t.Errorf("Shannon(random 64k) = %v, want above ObfuscationThreshold", got)
	}
}

func TestIsObfuscatedLowEntropy(t *testing.T) {
	data := bytes.Repeat([]byte("MOV EAX, EBX; PUSH EBP; "), 1000)
	if got := Shannon(data); got > ObfuscationThreshold {
		t.Errorf("Shannon(repetitive text) = %v, want at most ObfuscationThreshold", got)
	}
}

func TestShannonBoundsProperty(t *testing.T) {
	f := func(data []byte) bool {
		h := Shannon(data)
		return h >= 0 && h <= 8.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestShannonPermutationInvariantProperty(t *testing.T) {
	// Entropy only depends on the byte histogram, not order.
	f := func(data []byte) bool {
		if len(data) < 2 {
			return true
		}
		shuffled := append([]byte(nil), data...)
		rng := rand.New(rand.NewSource(42))
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		return math.Abs(Shannon(data)-Shannon(shuffled)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShannon1MB(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 1<<20)
	rng.Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Shannon(data)
	}
}
