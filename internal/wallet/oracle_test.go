package wallet

import (
	"math/rand"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cryptomining/internal/model"
)

// The regular expressions Classify, IsBase58 and ExtractCandidates were
// written as, verbatim. They define what the scanners in scan.go must return
// and are compiled only here.
var (
	reEmail    = regexp.MustCompile(`^[a-zA-Z0-9._%+\-]+@[a-zA-Z0-9.\-]+\.[a-zA-Z]{2,}$`)
	reEthereum = regexp.MustCompile(`^0x[0-9a-fA-F]{40}$`)
	reBech32   = regexp.MustCompile(`^bc1[02-9ac-hj-np-z]{11,71}$`)
	reBase58   = regexp.MustCompile(`^[1-9A-HJ-NP-Za-km-z]+$`)

	reCandidateCryptoNote = regexp.MustCompile(`\b(?:4|8|2|etn|Sumo|iz|TRTL|Wm|WW)[1-9A-HJ-NP-Za-km-z]{90,110}\b`)
	reCandidateBTC        = regexp.MustCompile(`\b[13][1-9A-HJ-NP-Za-km-z]{25,34}\b`)
	reCandidateETH        = regexp.MustCompile(`\b0x[0-9a-fA-F]{40}\b`)
	reCandidateZEC        = regexp.MustCompile(`\bt[13][1-9A-HJ-NP-Za-km-z]{33}\b`)
	reCandidateEmail      = regexp.MustCompile(`[a-zA-Z0-9._%+\-]+@[a-zA-Z0-9.\-]+\.[a-zA-Z]{2,}`)
)

func oracleIsBase58(s string) bool { return s != "" && reBase58.MatchString(s) }

// oracleClassify is Classify as it was: the three anchored regexes, then the
// prefix and length rules it still shares with Classify through the exported
// helpers.
func oracleClassify(id string) model.Currency {
	id = strings.TrimSpace(id)
	switch {
	case id == "":
		return model.CurrencyUnknown
	case reEmail.MatchString(id):
		return model.CurrencyEmail
	case reEthereum.MatchString(id):
		return model.CurrencyEthereum
	case reBech32.MatchString(id):
		return model.CurrencyBitcoin
	case len(id) == 35 && (strings.HasPrefix(id, "t1") || strings.HasPrefix(id, "t3")) && oracleIsBase58(id[1:]):
		return model.CurrencyZcash
	}
	for _, spec := range cryptoNoteSpecs {
		for _, p := range spec.prefixes {
			for _, l := range spec.length {
				if strings.HasPrefix(id, p) && len(id) == l && oracleIsBase58(id) {
					return spec.currency
				}
			}
		}
	}
	if len(id) >= 26 && len(id) <= 35 && (id[0] == '1' || id[0] == '3') && ValidBase58Check(id) {
		return model.CurrencyBitcoin
	}
	return model.CurrencyUnknown
}

// oracleExtractCandidates is ExtractCandidates as it was: five FindAllString
// passes, one family after the other, sharing one first-occurrence dedupe.
func oracleExtractCandidates(text string) []Candidate {
	var out []Candidate
	seen := map[string]bool{}
	for _, re := range []*regexp.Regexp{reCandidateCryptoNote, reCandidateZEC, reCandidateBTC, reCandidateETH, reCandidateEmail} {
		for _, m := range re.FindAllString(text, -1) {
			if seen[m] {
				continue
			}
			c := oracleClassify(m)
			if c == model.CurrencyUnknown {
				continue
			}
			seen[m] = true
			out = append(out, Candidate{ID: m, Currency: c})
		}
	}
	return out
}

// checkCandidates fails the test when the scanner and the oracle disagree on
// text, about the candidates or about how any word of it classifies.
func checkCandidates(t *testing.T, text string) {
	t.Helper()
	if got, want := ExtractCandidates(text), oracleExtractCandidates(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractCandidates(%q)\n got  %v\n want %v", text, got, want)
	}
	for _, id := range append(strings.Fields(text), text) {
		if got, want := Classify(id), oracleClassify(id); got != want {
			t.Fatalf("Classify(%q) = %v, oracle %v", id, got, want)
		}
		if got, want := IsBase58(id), oracleIsBase58(id); got != want {
			t.Fatalf("IsBase58(%q) = %v, oracle %v", id, got, want)
		}
	}
}

// CheckCandidates hands the check to the corpus test in package wallet_test.
var CheckCandidates = checkCandidates

// candidateQuirks are the behaviours of the regexes that a scanner written
// from the address formats alone would get wrong.
func candidateQuirks() map[string]string {
	g := NewGenerator(rand.New(rand.NewSource(23)))
	xmr, xmr2, zec, btc, eth, etn := g.Monero(), g.MoneroSub(), g.Zcash(), g.Bitcoin(), g.Ethereum(), g.Electroneum()
	return map[string]string{
		"family then position":       "a@b.io " + eth + " " + btc + " " + zec + " " + xmr + " " + etn + " c@d.org " + xmr2,
		"dedupe keeps first":         xmr + " " + btc + " " + xmr + " x@y.com " + btc + " x@y.com",
		"word boundary: underscore":  "_" + xmr + " " + xmr + "_ " + btc + "_x",
		"word boundary: punctuation": "-u" + xmr + " -u=" + xmr + ",(" + eth + ")[" + zec + "]",
		"word boundary: newline":     xmr[:50] + "\n" + xmr[50:] + "\n" + xmr,
		"one byte short or long":     xmr[:94] + " " + xmr + "1 " + zec[:34] + " " + zec + "1 " + eth[:41] + " " + eth + "0",
		"truncated to another size":  xmr[:91] + " " + xmr + xmr[1:12] + " " + etn[:97],
		"non-base58 inside":          xmr[:40] + "0" + xmr[41:] + " " + btc[:10] + "l" + btc[11:] + " 0x" + strings.Repeat("g", 40),
		"btc checksum is the judge":  btc + " " + btc[:len(btc)-1] + "z 1" + strings.Repeat("1", 30),
		"bech32 is never extracted":  "bc1qar0srrr7xfkvy5l643lydnw9re59gtzzwf5mdq",
		"high bytes are not word":    "\xff" + xmr + "\xc3\xa9" + btc + "\xe2\x82" + eth + "\x80",
		"high bytes split a word":    xmr[:50] + "\xc3\xa9" + xmr[50:] + " us\xc3\xa9r@mail.com caf\xe9@x.org a@b\xff.com",
		"email: last dot with tld":   "a@b.com.x1 a@b.c.d.e1.fgh.i a@x.y.zz- a@b.co.u",
		"email: tld takes letters":   "a@b.comX9 a@b.com9 a@b.c0m a@b.c",
		"email: domain needs a byte": "a@.com a@..com a@-.com a@b..io",
		"email: second @ after one":  "a@b.com@c.org x@y.zz@@p@q.rs@",
		"email: @ runs and no local": "@b.com @@a@b.cd a@@b.cd %+-._@a.bc",
		"email: local stops at =":    "--user=miner.x+1%y@mail.ru;p=q@r",
		"email inside a longer word": "xx" + xmr + "@mail.com " + btc + "@gmail.com",
		"email across a newline":     "miner\n@mail.com miner@\nmail.com miner@mail\n.com",
		"empty and blank":            " \t\n",
		"only separators":            "@.:-_",
	}
}

func TestCandidateQuirks(t *testing.T) {
	for name, text := range candidateQuirks() {
		t.Run(name, func(t *testing.T) { checkCandidates(t, text) })
	}
	// The table would pass vacuously if the generator's addresses stopped
	// being found at all.
	if got := ExtractCandidates(candidateQuirks()["family then position"]); len(got) != 8 ||
		got[0].Currency != model.CurrencyMonero || got[2].Currency != model.CurrencyMonero ||
		got[3].Currency != model.CurrencyZcash || got[7].ID != "c@d.org" {
		t.Fatalf("family then position: got %v", got)
	}
}

// TestClassifyAgainstOracle covers the anchored forms Classify takes that no
// candidate regex can produce.
func TestClassifyAgainstOracle(t *testing.T) {
	g := NewGenerator(rand.New(rand.NewSource(29)))
	ids := []string{
		"", " ", "x", "0x", "bc1", "@", "a@b", "a@b.c", "a@b.cd", " a@b.cd\n", "a@b.cd.", "a@b@c.de", "a b@c.de",
		"bc1qar0srrr7xfkvy5l643lydnw9re59gtzzwf5mdq", "bc1" + strings.Repeat("q", 10), "bc1" + strings.Repeat("q", 11),
		"bc1" + strings.Repeat("q", 71), "bc1" + strings.Repeat("q", 72), "bc1" + strings.Repeat("b", 20), "BC1" + strings.Repeat("q", 20),
		"0X" + strings.Repeat("a", 40), "0x" + strings.Repeat("A", 40), "0x" + strings.Repeat("a", 39) + "\n",
		"1BvBMSEYstWetqTFn5Au4m4GFg7xJaNVN2", "3J98t1WpEZ73CNmQviecrnyiWrnqRhWNLy", " " + g.Monero() + " ",
	}
	for _, c := range generated {
		id := g.ForCurrency(c)
		ids = append(ids, id, id[1:], id+"1", id[:len(id)-1], strings.ToUpper(id), "  "+id+"\t")
	}
	for _, id := range ids {
		if got, want := Classify(id), oracleClassify(id); got != want {
			t.Errorf("Classify(%q) = %v, oracle %v", id, got, want)
		}
		if got, want := IsBase58(id), oracleIsBase58(id); got != want {
			t.Errorf("IsBase58(%q) = %v, oracle %v", id, got, want)
		}
	}
}

// generated are the currencies Generator.ForCurrency has an address format
// for, and one it has none for (an opaque user name).
var generated = []model.Currency{
	model.CurrencyMonero, model.CurrencyBitcoin, model.CurrencyEthereum, model.CurrencyZcash,
	model.CurrencyElectroneum, model.CurrencyAeon, model.CurrencySumokoin, model.CurrencyIntense,
	model.CurrencyTurtlecoin, model.CurrencyBytecoin, model.CurrencyEmail, model.CurrencyUnknown,
}

// randomCandidateText draws a text that is mostly near-misses: generated
// identifiers, whole, truncated, extended or with one byte changed, glued
// together with the separators that decide word boundaries and e-mail edges.
func randomCandidateText(rng *rand.Rand) string {
	g := NewGenerator(rng)
	seps := []string{" ", "\n", "_", "-", ".", "@", ":", "=", "\xff", "\xc3\xa9", "", "", "1", "0x", "t", "com"}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		id := g.ForCurrency(generated[rng.Intn(len(generated))])
		switch rng.Intn(6) {
		case 0:
			id = id[:rng.Intn(len(id)+1)]
		case 1:
			id = id[rng.Intn(len(id)):]
		case 2:
			at := rng.Intn(len(id))
			id = id[:at] + string(rune(rng.Intn(128))) + id[at+1:]
		case 3:
			id += g.base58String(rng.Intn(20))
		}
		b.WriteString(id)
		b.WriteString(seps[rng.Intn(len(seps))])
	}
	return b.String()
}

func TestCandidatesDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 5000; i++ {
		checkCandidates(t, randomCandidateText(rng))
	}
}

// FuzzCandidatesDifferential: on arbitrary bytes the scanner returns what the
// regexes return, and classifies every word of the input as they do.
func FuzzCandidatesDifferential(f *testing.F) {
	for _, text := range candidateQuirks() {
		f.Add([]byte(text))
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 32; i++ {
		f.Add([]byte(randomCandidateText(rng)))
	}
	f.Fuzz(func(t *testing.T, text []byte) { checkCandidates(t, string(text)) })
}
