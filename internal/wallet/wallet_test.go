package wallet

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cryptomining/internal/model"
)

func newGen(seed int64) *Generator {
	return NewGenerator(rand.New(rand.NewSource(seed)))
}

func TestBase58RoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		enc := Base58Encode(data)
		dec, ok := Base58Decode(enc)
		if len(data) == 0 {
			return enc == "" && !ok
		}
		if !ok || len(dec) != len(data) {
			return false
		}
		for i := range data {
			if dec[i] != data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBase58DecodeInvalid(t *testing.T) {
	for _, s := range []string{"", "0OIl", "hello world", "abc!"} {
		if _, ok := Base58Decode(s); ok {
			t.Errorf("Base58Decode(%q) should fail", s)
		}
	}
}

func TestBase58LeadingZeros(t *testing.T) {
	data := []byte{0, 0, 1, 2, 3}
	enc := Base58Encode(data)
	if !strings.HasPrefix(enc, "11") {
		t.Errorf("leading zeros should encode as '1's: %q", enc)
	}
	dec, ok := Base58Decode(enc)
	if !ok || len(dec) != 5 || dec[0] != 0 || dec[1] != 0 {
		t.Errorf("round trip with leading zeros = %v", dec)
	}
}

func TestBase58CheckRoundTrip(t *testing.T) {
	payload := []byte{0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	addr := EncodeBase58Check(payload)
	if !ValidBase58Check(addr) {
		t.Errorf("EncodeBase58Check output should validate: %q", addr)
	}
	// Corrupt one character.
	corrupted := []byte(addr)
	if corrupted[5] == 'x' {
		corrupted[5] = 'y'
	} else {
		corrupted[5] = 'x'
	}
	if ValidBase58Check(string(corrupted)) {
		t.Error("corrupted Base58Check address should not validate")
	}
}

func TestValidBase58CheckTooShort(t *testing.T) {
	if ValidBase58Check("1abc") {
		t.Error("too-short string should not validate")
	}
	if ValidBase58Check("") {
		t.Error("empty string should not validate")
	}
}

func TestKnownBitcoinAddress(t *testing.T) {
	// The genesis block coinbase address (well-known public constant).
	if !ValidBase58Check("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa") {
		t.Error("known Bitcoin address failed checksum validation")
	}
	if got := Classify("1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"); got != model.CurrencyBitcoin {
		t.Errorf("Classify(genesis address) = %v, want BTC", got)
	}
}

func TestClassifyGeneratedAddresses(t *testing.T) {
	g := newGen(1)
	tests := []struct {
		name string
		addr string
		want model.Currency
	}{
		{"monero standard", g.Monero(), model.CurrencyMonero},
		{"monero subaddress", g.MoneroSub(), model.CurrencyMonero},
		{"bitcoin", g.Bitcoin(), model.CurrencyBitcoin},
		{"ethereum", g.Ethereum(), model.CurrencyEthereum},
		{"zcash", g.Zcash(), model.CurrencyZcash},
		{"electroneum", g.Electroneum(), model.CurrencyElectroneum},
		{"aeon", g.Aeon(), model.CurrencyAeon},
		{"sumokoin", g.Sumokoin(), model.CurrencySumokoin},
		{"intense", g.Intense(), model.CurrencyIntense},
		{"turtlecoin", g.Turtlecoin(), model.CurrencyTurtlecoin},
		{"bytecoin", g.Bytecoin(), model.CurrencyBytecoin},
		{"email", g.Email(), model.CurrencyEmail},
	}
	for _, tt := range tests {
		if got := Classify(tt.addr); got != tt.want {
			t.Errorf("%s: Classify(%q) = %v, want %v", tt.name, tt.addr, got, tt.want)
		}
	}
}

func TestClassifyGeneratorForCurrencyProperty(t *testing.T) {
	g := newGen(7)
	currencies := []model.Currency{
		model.CurrencyMonero, model.CurrencyBitcoin, model.CurrencyEthereum,
		model.CurrencyZcash, model.CurrencyElectroneum, model.CurrencyAeon,
		model.CurrencySumokoin, model.CurrencyIntense, model.CurrencyTurtlecoin,
		model.CurrencyBytecoin, model.CurrencyEmail,
	}
	for i := 0; i < 50; i++ {
		for _, c := range currencies {
			addr := g.ForCurrency(c)
			if got := Classify(addr); got != c {
				t.Fatalf("iteration %d: ForCurrency(%v) generated %q classified as %v", i, c, addr, got)
			}
		}
	}
}

func TestClassifyUnknown(t *testing.T) {
	cases := []string{
		"",
		"   ",
		"hello",
		"user-ABC123",
		"4short",                            // too short for Monero
		"1InvalidChecksumAddressAAAAAAAAAA", // bad checksum
		"0xZZZZ",
	}
	for _, c := range cases {
		if got := Classify(c); got != model.CurrencyUnknown {
			t.Errorf("Classify(%q) = %v, want unknown", c, got)
		}
	}
}

func TestIsWallet(t *testing.T) {
	g := newGen(3)
	if got := Classify(g.Monero()); got != model.CurrencyMonero {
		t.Errorf("Monero address classified %v, want a Monero wallet", got)
	}
	if got := Classify(g.Email()); got != model.CurrencyEmail {
		t.Errorf("email classified %v, want an e-mail, not a wallet", got)
	}
	if got := Classify("random-user"); got != model.CurrencyUnknown {
		t.Errorf("unknown identifier classified %v, want unknown", got)
	}
}

func TestExtractCandidatesFromCommandLine(t *testing.T) {
	g := newGen(5)
	xmr := g.Monero()
	btc := g.Bitcoin()
	email := g.Email()
	cmdline := "xmrig.exe -o stratum+tcp://pool.minexmr.com:4444 -u " + xmr +
		" -p x --donate-level=1 ; fallback -u " + btc + " ; contact " + email
	cands := ExtractCandidates(cmdline)
	found := map[model.Currency]string{}
	for _, c := range cands {
		found[c.Currency] = c.ID
	}
	if found[model.CurrencyMonero] != xmr {
		t.Errorf("Monero candidate = %q, want %q", found[model.CurrencyMonero], xmr)
	}
	if found[model.CurrencyBitcoin] != btc {
		t.Errorf("Bitcoin candidate = %q, want %q", found[model.CurrencyBitcoin], btc)
	}
	if found[model.CurrencyEmail] != email {
		t.Errorf("Email candidate = %q, want %q", found[model.CurrencyEmail], email)
	}
}

func TestExtractCandidatesDeduplicates(t *testing.T) {
	g := newGen(6)
	xmr := g.Monero()
	text := xmr + " and again " + xmr + " and once more " + xmr
	cands := ExtractCandidates(text)
	if len(cands) != 1 {
		t.Errorf("ExtractCandidates should deduplicate, got %d candidates", len(cands))
	}
}

func TestExtractCandidatesNoFalsePositivesOnPlainText(t *testing.T) {
	text := "GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: Mozilla/5.0\r\n"
	if cands := ExtractCandidates(text); len(cands) != 0 {
		t.Errorf("plain HTTP text should have no candidates, got %v", cands)
	}
}

func TestExtractCandidatesEthereum(t *testing.T) {
	g := newGen(8)
	eth := g.Ethereum()
	cands := ExtractCandidates("claymore -epool eth.pool.com:4444 -ewal " + eth + " -eworker rig1")
	if len(cands) != 1 || cands[0].Currency != model.CurrencyEthereum {
		t.Errorf("ExtractCandidates(eth cmdline) = %v", cands)
	}
}

func TestGeneratedAddressesUnique(t *testing.T) {
	g := newGen(9)
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		a := g.Monero()
		if seen[a] {
			t.Fatalf("duplicate generated address at iteration %d", i)
		}
		seen[a] = true
	}
}

func TestIsBase58(t *testing.T) {
	if !IsBase58("123abcXYZ") {
		t.Error("valid base58 rejected")
	}
	for _, s := range []string{"", "0", "O", "I", "l", "abc0def"} {
		if IsBase58(s) {
			t.Errorf("IsBase58(%q) = true, want false", s)
		}
	}
}

func BenchmarkClassify(b *testing.B) {
	g := newGen(10)
	addrs := []string{g.Monero(), g.Bitcoin(), g.Ethereum(), g.Email(), "unknown-id"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Classify(addrs[i%len(addrs)])
	}
}

func BenchmarkExtractCandidates(b *testing.B) {
	g := newGen(11)
	text := strings.Repeat("padding text around the identifier ", 50) + g.Monero() +
		strings.Repeat(" more padding ", 50) + g.Bitcoin()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ExtractCandidates(text)
	}
}
