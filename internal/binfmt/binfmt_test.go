package binfmt

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cryptomining/internal/entropy"
	"cryptomining/internal/model"
)

func TestDetectFormatPE(t *testing.T) {
	b := NewBuilder(model.FormatPE).AddString("hello").Build()
	if got := DetectFormat(b); got != model.FormatPE {
		t.Errorf("DetectFormat(PE builder) = %v, want PE", got)
	}
}

func TestDetectFormatELF(t *testing.T) {
	b := NewBuilder(model.FormatELF).Build()
	if got := DetectFormat(b); got != model.FormatELF {
		t.Errorf("DetectFormat(ELF builder) = %v, want ELF", got)
	}
}

func TestDetectFormatJAR(t *testing.T) {
	b := NewBuilder(model.FormatJAR).Build()
	if got := DetectFormat(b); got != model.FormatJAR {
		t.Errorf("DetectFormat(JAR builder) = %v, want JAR", got)
	}
}

func TestDetectFormatZIPWithoutManifest(t *testing.T) {
	content := append([]byte{'P', 'K', 0x03, 0x04}, []byte("random zip content")...)
	if got := DetectFormat(content); got != model.FormatZIP {
		t.Errorf("DetectFormat(plain zip) = %v, want ZIP", got)
	}
}

func TestDetectFormatScriptHTMLUnknown(t *testing.T) {
	if got := DetectFormat([]byte("#!/bin/bash\necho hi")); got != model.FormatScript {
		t.Errorf("script = %v", got)
	}
	if got := DetectFormat([]byte("  <!DOCTYPE html><head></head>")); got != model.FormatHTML {
		t.Errorf("html doctype = %v", got)
	}
	if got := DetectFormat([]byte("<html><body>cryptojacker</body></html>")); got != model.FormatHTML {
		t.Errorf("html tag = %v", got)
	}
	if got := DetectFormat([]byte{0x00, 0x01, 0x02}); got != model.FormatUnknown {
		t.Errorf("unknown = %v", got)
	}
	if got := DetectFormat(nil); got != model.FormatUnknown {
		t.Errorf("nil = %v", got)
	}
}

func TestIsExecutable(t *testing.T) {
	execs := []model.ExecutableFormat{model.FormatPE, model.FormatELF, model.FormatJAR}
	for _, f := range execs {
		if !IsExecutable(f) {
			t.Errorf("IsExecutable(%v) = false, want true", f)
		}
	}
	nonExecs := []model.ExecutableFormat{model.FormatZIP, model.FormatScript, model.FormatHTML, model.FormatUnknown}
	for _, f := range nonExecs {
		if IsExecutable(f) {
			t.Errorf("IsExecutable(%v) = true, want false", f)
		}
	}
}

func TestDetectPacker(t *testing.T) {
	s := NewScanner()
	tests := []struct {
		packer string
		want   string
	}{
		{"UPX", "UPX"},
		{"NSIS", "NSIS"},
		{"INNO", "INNO"},
		{"Enigma", "Enigma"},
		{"maxorder", "maxorder"},
	}
	for _, tt := range tests {
		content := NewBuilder(model.FormatPE).WithPacker(tt.packer).AddString("payload").Build()
		if got := s.DetectPacker(content); got != tt.want {
			t.Errorf("DetectPacker(%s-packed) = %q, want %q", tt.packer, got, tt.want)
		}
	}
}

func TestDetectPackerNone(t *testing.T) {
	s := NewScanner()
	content := NewBuilder(model.FormatPE).AddString("plain unpacked miner").Build()
	if got := s.DetectPacker(content); got != "" {
		t.Errorf("DetectPacker(unpacked) = %q, want empty", got)
	}
}

func TestDetectCompressionNotPacker(t *testing.T) {
	s := NewScanner()
	content := append(NewBuilder(model.FormatPE).Build(), []byte("MSCF")...)
	if got := s.DetectPacker(content); got != "" {
		t.Errorf("CAB compression reported as packer: %q", got)
	}
	if got := s.DetectCompression(content); got != "CAB" {
		t.Errorf("DetectCompression = %q, want CAB", got)
	}
}

func TestScannerCustomSignatures(t *testing.T) {
	s := NewScanner(PackerSignature{Name: "CustomCrypter", Marker: []byte("XCRYPTv9")})
	content := []byte("MZ....XCRYPTv9....")
	if got := s.DetectPacker(content); got != "CustomCrypter" {
		t.Errorf("custom signature not detected: %q", got)
	}
	if got := s.DetectPacker([]byte("MZ UPX! payload")); got != "" {
		t.Errorf("default signature should not apply with custom scanner: %q", got)
	}
}

func TestBuilderEmbeddedStrings(t *testing.T) {
	wallet := "46G5yoqAPPuAP9BCFAqFi1bdArTPoz6tQ5BFeSN1ABCDEFXYZ"
	url := "stratum+tcp://pool.minexmr.com:4444"
	content := NewBuilder(model.FormatPE).
		AddString(wallet).
		AddString(url).
		AddSection(".rsrc", []byte("resource data")).
		Build()
	strs := ExtractStrings(content, 6)
	joined := strings.Join(strs, "\n")
	if !strings.Contains(joined, wallet) {
		t.Errorf("wallet string not extracted from built binary")
	}
	if !strings.Contains(joined, url) {
		t.Errorf("pool URL string not extracted from built binary")
	}
}

func TestBuilderUnsupportedFormatFallsBackToPE(t *testing.T) {
	content := NewBuilder(model.FormatHTML).Build()
	if got := DetectFormat(content); got != model.FormatPE {
		t.Errorf("fallback format = %v, want PE", got)
	}
}

func TestBuilderPaddingRaisesEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pad := make([]byte, 32*1024)
	rng.Read(pad)
	packed := NewBuilder(model.FormatPE).WithPadding(pad).Build()
	plain := NewBuilder(model.FormatPE).AddString(strings.Repeat("benign ascii strings ", 2000)).Build()
	if entropy.Shannon(packed) <= entropy.Shannon(plain) {
		t.Errorf("padded binary entropy %v should exceed plain binary entropy %v",
			entropy.Shannon(packed), entropy.Shannon(plain))
	}
}

func TestHashes(t *testing.T) {
	sha, md := Hashes([]byte("abc"))
	if sha != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("sha256(abc) = %s", sha)
	}
	if md != "900150983cd24fb0d6963f7d28e17f72" {
		t.Errorf("md5(abc) = %s", md)
	}
}

func TestHashesDeterministicProperty(t *testing.T) {
	f := func(data []byte) bool {
		s1, m1 := Hashes(data)
		s2, m2 := Hashes(append([]byte(nil), data...))
		return s1 == s2 && m1 == m2 && len(s1) == 64 && len(m1) == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestExtractStrings(t *testing.T) {
	content := []byte("\x00\x01short\x00averylongstring_here\x02\x03ab\x00tail-string")
	strs := ExtractStrings(content, 5)
	want := map[string]bool{"short": true, "averylongstring_here": true, "tail-string": true}
	if len(strs) != 3 {
		t.Fatalf("ExtractStrings = %v, want 3 strings", strs)
	}
	for _, s := range strs {
		if !want[s] {
			t.Errorf("unexpected string %q", s)
		}
	}
}

func TestExtractStringsMinLenDefault(t *testing.T) {
	strs := ExtractStrings([]byte("abc\x00abcd\x00"), 0)
	if len(strs) != 1 || strs[0] != "abcd" {
		t.Errorf("ExtractStrings default minLen = %v, want [abcd]", strs)
	}
}

func TestStringsTextIsTheJoinedStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	bodies := [][]byte{nil, []byte("abc"), []byte("abcdef"), []byte("\x00abcdef\x00\x00ghijkl\x7fmnopqr"), []byte("ab\ncdefgh\n")}
	for i := 0; i < 200; i++ {
		// Runs of printable bytes around minLen, separated by one or more
		// bytes from both sides of the printable range.
		var body []byte
		for n := rng.Intn(12); n > 0; n-- {
			for k := rng.Intn(10); k > 0; k-- {
				body = append(body, byte(0x20+rng.Intn(0x5f)))
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				body = append(body, []byte{0, '\n', 0x1f, 0x7f, 0x80, 0xff}[rng.Intn(6)])
			}
		}
		bodies = append(bodies, body[:len(body)-min(len(body), rng.Intn(2))])
	}
	for _, body := range bodies {
		for _, minLen := range []int{-1, 0, 1, 4, 6} {
			strs := ExtractStrings(body, minLen)
			text, n := StringsText(body, minLen)
			if want := strings.Join(strs, "\n"); text != want || n != len(strs) {
				t.Fatalf("StringsText(%q, %d) = %q, %d; ExtractStrings joins to %q, %d", body, minLen, text, n, want, len(strs))
			}
		}
	}
}

func TestSectionString(t *testing.T) {
	s := Section{Name: ".text", Data: make([]byte, 10)}
	if got := s.String(); got != ".text(10 bytes)" {
		t.Errorf("Section.String() = %q", got)
	}
}

func TestBuildDistinctContentDistinctHashes(t *testing.T) {
	a := NewBuilder(model.FormatPE).AddString("wallet-A").Build()
	b := NewBuilder(model.FormatPE).AddString("wallet-B").Build()
	sa, _ := Hashes(a)
	sb, _ := Hashes(b)
	if sa == sb {
		t.Error("distinct binaries should have distinct hashes")
	}
	if bytes.Equal(a, b) {
		t.Error("distinct builders should produce distinct content")
	}
}

func BenchmarkDetectPacker(b *testing.B) {
	s := NewScanner()
	content := NewBuilder(model.FormatPE).WithPacker("Enigma").WithPadding(make([]byte, 512*1024)).Build()
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.DetectPacker(content)
	}
}

func BenchmarkExtractStrings(b *testing.B) {
	content := NewBuilder(model.FormatPE).
		AddString("stratum+tcp://pool.minexmr.com:4444").
		WithPadding(bytes.Repeat([]byte{0, 'a', 'b', 0}, 64*1024)).
		Build()
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractStrings(content, 6)
	}
}
