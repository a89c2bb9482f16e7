package static

import (
	"math/rand"
	"strings"
	"testing"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/model"
	walletpkg "cryptomining/internal/wallet"
)

func monero(seed int64) string {
	return walletpkg.NewGenerator(rand.New(rand.NewSource(seed))).Monero()
}

func TestAnalyzeCleartextMiner(t *testing.T) {
	a := New()
	w := monero(1)
	cmdline := "xmrig.exe -o stratum+tcp://pool.minexmr.com:4444 -u " + w + " -p x --donate-level=1"
	content := binfmt.NewBuilder(model.FormatPE).
		AddString(cmdline).
		AddString("https://github.com/xmrig/xmrig/releases/download/v2.14.1/xmrig-2.14.1.zip").
		Build()
	res := a.Analyze(content)

	if res.Format != model.FormatPE {
		t.Errorf("format = %v", res.Format)
	}
	if len(res.Identifiers) != 1 || res.Identifiers[0].ID != w {
		t.Errorf("identifiers = %v", res.Identifiers)
	}
	if res.Identifiers[0].Currency != model.CurrencyMonero {
		t.Errorf("currency = %v", res.Identifiers[0].Currency)
	}
	if len(res.PoolEndpoints) == 0 || res.PoolEndpoints[0].Host != "pool.minexmr.com" || res.PoolEndpoints[0].Port != 4444 {
		t.Errorf("endpoints = %v", res.PoolEndpoints)
	}
	if len(res.URLs) != 1 || !strings.Contains(res.URLs[0], "github.com") {
		t.Errorf("urls = %v", res.URLs)
	}
	if len(res.YARAMatches) == 0 {
		t.Error("YARA miner rules should match a cleartext miner")
	}
	if len(res.Identifiers) == 0 && len(res.PoolEndpoints) == 0 {
		t.Error("cleartext miner should yield an identifier or a pool endpoint")
	}
	if res.Obfuscated {
		t.Error("cleartext miner should not be flagged obfuscated")
	}
	if res.SHA256 == "" || res.MD5 == "" {
		t.Error("hashes should be populated")
	}
}

func TestAnalyzePackedSampleHidesStrings(t *testing.T) {
	a := New()
	w := monero(2)
	// Packed: UPX marker + high-entropy payload, no cleartext strings.
	rng := rand.New(rand.NewSource(3))
	pad := make([]byte, 128*1024)
	rng.Read(pad)
	content := binfmt.NewBuilder(model.FormatPE).WithPacker("UPX").WithPadding(pad).Build()
	res := a.Analyze(content)

	if res.Packer != "UPX" {
		t.Errorf("packer = %q", res.Packer)
	}
	if !res.Obfuscated {
		t.Error("UPX-packed sample should be obfuscated")
	}
	if len(res.Identifiers) != 0 {
		t.Errorf("packed sample should not leak identifiers, got %v", res.Identifiers)
	}
	_ = w
}

func TestAnalyzeHighEntropyWithoutKnownPacker(t *testing.T) {
	a := New()
	rng := rand.New(rand.NewSource(4))
	pad := make([]byte, 256*1024)
	rng.Read(pad)
	content := binfmt.NewBuilder(model.FormatPE).WithPadding(pad).Build()
	res := a.Analyze(content)
	if res.Packer != "" {
		t.Errorf("no packer marker expected, got %q", res.Packer)
	}
	if !res.Obfuscated {
		t.Errorf("entropy %v above threshold should mark sample obfuscated", res.Entropy)
	}
}

func TestAnalyzeCompressionNotObfuscation(t *testing.T) {
	a := New()
	// A CAB container marker with low-entropy content: compression is
	// identified but not counted as obfuscation.
	content := append(binfmt.NewBuilder(model.FormatPE).AddString(strings.Repeat("plain text ", 500)).Build(), []byte("MSCF")...)
	res := a.Analyze(content)
	if res.Compression != "CAB" {
		t.Errorf("compression = %q", res.Compression)
	}
	if res.Obfuscated {
		t.Error("compressed-but-low-entropy sample should not be obfuscated")
	}
}

func TestAnalyzeBenignBinary(t *testing.T) {
	a := New()
	content := binfmt.NewBuilder(model.FormatPE).
		AddString("This program cannot be run in DOS mode").
		AddString("Copyright (c) Example Corp").
		Build()
	res := a.Analyze(content)
	if len(res.Identifiers) != 0 || len(res.PoolEndpoints) != 0 {
		t.Error("benign binary should yield no identifier or pool endpoint")
	}
	if len(res.YARAMatches) != 0 {
		t.Errorf("benign binary YARA matches = %v", res.YARAMatches)
	}
}

func TestAnalyzeELFAndEmailIdentifier(t *testing.T) {
	a := New()
	content := binfmt.NewBuilder(model.FormatELF).
		AddString("minerd --url=xmr-eu.dwarfpool.com:8005 --user=botmaster99@mail.ru --pass x").
		Build()
	res := a.Analyze(content)
	if res.Format != model.FormatELF {
		t.Errorf("format = %v", res.Format)
	}
	if len(res.Identifiers) != 1 || res.Identifiers[0].Currency != model.CurrencyEmail {
		t.Errorf("identifiers = %v", res.Identifiers)
	}
	found := false
	for _, e := range res.PoolEndpoints {
		if e.Host == "xmr-eu.dwarfpool.com" && e.Port == 8005 {
			found = true
		}
	}
	if !found {
		t.Errorf("dwarfpool endpoint not extracted: %v", res.PoolEndpoints)
	}
}

func TestExtractEndpoints(t *testing.T) {
	text := `
config: stratum+tcp://mine.crypto-pool.fr:3333
fallback: stratum+ssl://pool.supportxmr.com:443
cmd: -o xmr.prohash.net:1111 -u wallet
alias: xmr.usa-138.com:5555
duplicate: stratum+tcp://mine.crypto-pool.fr:3333
not-a-port: host.example.com:99999
`
	eps := ExtractEndpoints(text)
	byHost := map[string]Endpoint{}
	for _, e := range eps {
		byHost[e.Host] = e
	}
	if len(eps) != 4 {
		t.Errorf("endpoints = %v, want 4 distinct", eps)
	}
	if e := byHost["pool.supportxmr.com"]; !e.TLS || e.Port != 443 {
		t.Errorf("ssl endpoint = %+v", e)
	}
	if e := byHost["mine.crypto-pool.fr"]; e.Port != 3333 {
		t.Errorf("crypto-pool endpoint = %+v", e)
	}
	if e := byHost["xmr.usa-138.com"]; e.Port != 5555 {
		t.Errorf("alias endpoint = %+v", e)
	}
	if _, ok := byHost["host.example.com"]; ok {
		t.Error("invalid port should be rejected")
	}
}

func TestEndpointString(t *testing.T) {
	e := Endpoint{Host: "pool.minexmr.com", Port: 4444}
	if e.String() != "pool.minexmr.com:4444" {
		t.Errorf("Endpoint.String() = %q", e.String())
	}
}

func TestAnalyzeEmptyContent(t *testing.T) {
	a := New()
	res := a.Analyze(nil)
	if res.Format != model.FormatUnknown || len(res.Identifiers) != 0 || len(res.PoolEndpoints) != 0 || res.Obfuscated {
		t.Errorf("empty content result = %+v", res)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	a := New()
	w := monero(9)
	rng := rand.New(rand.NewSource(10))
	pad := make([]byte, 256*1024)
	rng.Read(pad)
	content := binfmt.NewBuilder(model.FormatPE).
		AddString("xmrig -o stratum+tcp://pool.minexmr.com:4444 -u " + w + " -p x").
		WithPadding(pad).
		Build()
	b.SetBytes(int64(len(content)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Analyze(content)
	}
}
