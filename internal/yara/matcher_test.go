package yara

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cryptomining/internal/ecosim"
)

// checkAgainstRef fails t unless the compiled matcher and the reference
// return the same results (rules, order, matched strings) for content; it
// returns them.
func checkAgainstRef(t *testing.T, rs *RuleSet, content []byte) []MatchResult {
	t.Helper()
	got, want := rs.Match(content), refMatch(rs, content, asciiLower)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("content %q:\ncompiled  %v\nreference %v", clip(content), got, want)
	}
	if any := rs.AnyMatch(content); any != (len(want) > 0) {
		t.Fatalf("content %q: AnyMatch = %v, reference matched %d rules", clip(content), any, len(want))
	}
	return want
}

func clip(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// heavyCorpus and wideCorpus are the two corpora cmd/bench feeds: the
// materialised universe at heavy-drain's scale and ecosystem seed, and a slice
// of the streamed one.
func heavyCorpus() [][]byte {
	cfg := ecosim.DefaultConfig().Scale(217.0 / 2170)
	cfg.Seed = 2019
	u := ecosim.Generate(cfg)
	var bodies [][]byte
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			bodies = append(bodies, s.Content)
		}
	}
	return bodies
}

func wideCorpus(n int) [][]byte {
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019, Ledger: true})
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = gen.Next().Sample.Content
	}
	return bodies
}

// TestMatchDifferentialCorpus: on every body of both benchmark corpora the
// compiled matcher agrees with the reference, and the reference agrees with
// the old bytes.ToLower matcher — no body's verdict hung on Unicode folding,
// so the ASCII-only `nocase` changes no Results.
func TestMatchDifferentialCorpus(t *testing.T) {
	rs := MinerRules()
	matched := 0
	for name, bodies := range map[string][][]byte{"heavy": heavyCorpus(), "wide": wideCorpus(2000)} {
		if len(bodies) < 200 {
			t.Fatalf("%s corpus: only %d bodies", name, len(bodies))
		}
		for _, body := range bodies {
			want := checkAgainstRef(t, rs, body)
			if legacy := refMatch(rs, body, bytes.ToLower); !reflect.DeepEqual(legacy, want) {
				t.Fatalf("%s corpus: body %q depends on Unicode case folding:\nbytes.ToLower %v\nASCII         %v", name, clip(body), legacy, want)
			}
			if len(want) > 0 {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("no corpus body matched any rule; the comparison is vacuous")
	}
}

// The one intended change of behaviour: bytes.ToLower folded U+0130 to "i"
// and U+212A (Kelvin sign) to "k", so the old matcher found "xmrig" in
// "xmrİg". YARA's nocase is ASCII-only and so is the automaton's.
func TestNoCaseIsASCIIOnly(t *testing.T) {
	rs := MinerRules()
	for _, s := range []string{"xmrİg", "xmr-sta\u212A", "CRYPTON\u0130GHT"} {
		if legacy := refMatch(rs, []byte(s), bytes.ToLower); len(legacy) == 0 {
			t.Errorf("%q: the bytes.ToLower matcher should have matched; the test pins nothing", s)
		}
		if rs.AnyMatch([]byte(s)) {
			t.Errorf("%q matched: nocase must fold ASCII letters only", s)
		}
		checkAgainstRef(t, rs, []byte(s))
	}
	if !rs.AnyMatch([]byte("XmRiG")) {
		t.Error("ASCII case folding lost")
	}
}

const mixedRules = `
rule Any {
 strings:
  $t = "Stratum"
  $n = "XMRig" nocase
  $h = { 4D 5A 00 41 }
 condition:
  any of them
}
rule All {
 strings:
  $t = "Stratum"
  $n = "XMRig" nocase
  $h = { 4D 5A 00 41 }
 condition:
  all of them
}
rule Two {
 strings:
  $t = "Stratum"
  $n = "XMRig" nocase
  $h = { 4D 5A 00 41 }
 condition:
  2 of them
}
rule Expr {
 strings:
  $t = "Stratum"
  $n = "XMRig" nocase
  $h = { 4D 5A 00 41 }
 condition:
  ($t or $h) and not $n
}
rule Overlap {
 strings:
  $short = "xmrig" nocase
  $long = "xmrig-proxy" nocase
  $dash = "-o stratum" nocase
  $url = "stratum+tcp://" nocase
  $same = "xmrig"
 condition:
  any of them
}
`

// TestMatchHandCases pins the cases the automaton could get wrong by
// construction: patterns inside and across one another, a match ending on the
// last byte, case-sensitive text and hex beside nocase, every condition kind.
func TestMatchHandCases(t *testing.T) {
	rs, err := Parse(mixedRules)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		content string
		want    string // "Rule[$a $b] ...", the rules that match and their strings
	}{
		{"", ""},
		{"nothing to see", ""},
		{"xmrig-proxy", "Any[$n] Overlap[$short $long $same]"},
		{"run XMRIG-PROXY", "Any[$n] Overlap[$short $long]"},
		{"xmrig-prox", "Any[$n] Overlap[$short $same]"},
		{"xmrig-proxxmrig-proxy", "Any[$n] Overlap[$short $long $same]"},
		{"-o stratum+tcp://", "Overlap[$dash $url]"},
		{"-o Stratum+tcp:/", "Any[$t] Expr[$t] Overlap[$dash]"},
		{"xstratum+tcp://x", "Overlap[$url]"},
		// Hex and case-sensitive text must not fold: "mz\x00a" and
		// "stratum" are neither.
		{"mz\x00a stratum", ""},
		{"MZ\x00a MZ\x00A", "Any[$h] Expr[$h]"},
		{"mZ\x00AMZ\x00A", "Any[$h] Expr[$h]"},
		{"stratumStratum", "Any[$t] Expr[$t]"},
		{"Stratum xmRIG", "Any[$t $n] Two[$t $n] Overlap[$short]"},
		{"MZ\x00A Stratum xmrig", "Any[$t $n $h] All[$t $n $h] Two[$t $n $h] Overlap[$short $same]"},
	}
	for _, tt := range cases {
		var parts []string
		for _, r := range rs.Match([]byte(tt.content)) {
			parts = append(parts, fmt.Sprintf("%s%v", r.Rule, r.MatchedStrings))
		}
		if got := strings.Join(parts, " "); got != tt.want {
			t.Errorf("%q:\n got %s\nwant %s", tt.content, got, tt.want)
		}
		checkAgainstRef(t, rs, []byte(tt.content))
	}
}

// One RuleSet serves every shard goroutine; run under -race.
func TestMatchConcurrent(t *testing.T) {
	rs := MinerRules()
	bodies := wideCorpus(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies {
				if got, want := rs.Match(body), refMatch(rs, body, asciiLower); !reflect.DeepEqual(got, want) {
					t.Errorf("compiled %v, reference %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatchAllocs is the matcher's allocation budget, measured: a scan
// allocates nothing, and a matching body pays two allocations however many
// rules and strings matched — the []MatchResult and one []string that every
// MatchedStrings is cut from.
func TestMatchAllocs(t *testing.T) {
	rs := MinerRules()
	miss := bytes.Repeat([]byte("padding data, no marker \x00\xff\n"), 64<<10/27+1)[:64<<10]
	hit := []byte("XMRig --donate-level=1 -o stratum+tcp://pool.minexmr.com:4444")
	if got := rs.Match(miss); got != nil {
		t.Fatalf("non-matching body matched %v", got)
	}
	if got := rs.Match(hit); len(got) != len(rs.Rules) {
		t.Fatalf("matching body matched %d rules of %d", len(got), len(rs.Rules))
	}
	var sink []MatchResult
	var any bool
	for _, tt := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Match, 64 KB, no match", 0, func() { sink = rs.Match(miss) }},
		{"Match, all four rules", 2, func() { sink = rs.Match(hit) }},
		{"AnyMatch, no match", 0, func() { any = rs.AnyMatch(miss) }},
		{"AnyMatch, match", 0, func() { any = rs.AnyMatch(hit) }},
	} {
		if got := testing.AllocsPerRun(100, tt.f); got != tt.want {
			t.Errorf("%s: %v allocs per run, want %v", tt.name, got, tt.want)
		}
	}
	_, _ = sink, any
}

// randomRules writes the source of a small rule set drawn from seed: text,
// nocase and hex strings, named and anonymous, under every condition kind.
// Patterns are cut from content (some with their case flipped) so that they
// match, overlap and nest; the rest come from a four-letter alphabet. defs
// returns, per rule, the bytes each string must parse to.
func randomRules(content []byte, seed uint64) (src string, defs [][][]byte) {
	rng := rand.New(rand.NewSource(int64(seed)))
	var b strings.Builder
	for r, nRules := 0, 1+rng.Intn(3); r < nRules; r++ {
		fmt.Fprintf(&b, "rule R%d\n{\n strings:\n", r)
		var names []string
		var pats [][]byte
		for d, nDefs := 0, 1+rng.Intn(5); d < nDefs; d++ {
			n := 1 + rng.Intn(6)
			pat := make([]byte, n)
			if len(content) > 0 && rng.Intn(3) > 0 {
				at := rng.Intn(len(content))
				pat = append([]byte(nil), content[at:min(at+n, len(content))]...)
				if rng.Intn(3) == 0 {
					pat = bytes.ToUpper(pat)
				}
			} else {
				for i := range pat {
					pat[i] = "aAb\x00"[rng.Intn(4)]
				}
			}
			name := "$"
			if rng.Intn(4) > 0 {
				name = fmt.Sprintf("$s%d", d)
				names = append(names, name)
			}
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "  %s = { % X }\n", name, pat)
			case 1:
				fmt.Fprintf(&b, "  %s = %s\n", name, quote(pat))
			default:
				fmt.Fprintf(&b, "  %s = %s nocase\n", name, quote(pat))
			}
			pats = append(pats, pat)
		}
		defs = append(defs, pats)
		b.WriteString(" condition:\n  ")
		id := func() string { return names[rng.Intn(len(names))] }
		switch k := rng.Intn(5); {
		case k == 0:
			b.WriteString("any of them")
		case k == 1:
			b.WriteString("all of them")
		case k == 2 || len(names) == 0:
			fmt.Fprintf(&b, "%d of them", 1+rng.Intn(len(pats)))
		case k == 3:
			fmt.Fprintf(&b, "(%s or not %s) and %s", id(), id(), id())
		default:
			fmt.Fprintf(&b, "not (%s and %s) or %s", id(), id(), id())
		}
		b.WriteString("\n}\n")
	}
	return b.String(), defs
}

// quote renders pat as a YARA text string.
func quote(pat []byte) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, c := range pat {
		switch c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// FuzzMatchDifferential: for any content, the compiled matcher agrees with
// the reference on the built-in rules and on a rule set drawn from ruleSeed.
func FuzzMatchDifferential(f *testing.F) {
	for seed, content := range []string{
		"",
		"xmrig-proxy -o stratum+tcp://pool.minexmr.com:4444",
		"XMRIG-PROXXMRIG-PROXY --DONATE-LEVEL=1",
		"mz\x00a MZ\x00A Stratum xmRIG",
		"xmrİg xmr-sta\u212A",
		"aAbaab\x00\x00aAAb\x00a",
		`{"method":"login"} {"method": "login"} mining.subscribe`,
		"ends with a pattern: randomx",
	} {
		f.Add([]byte(content), uint64(seed))
	}
	miner := MinerRules()
	f.Fuzz(func(t *testing.T, content []byte, ruleSeed uint64) {
		checkAgainstRef(t, miner, content)
		src, defs := randomRules(content, ruleSeed)
		rs, err := Parse(src)
		if err != nil {
			t.Fatalf("generated rules do not parse: %v\n%s", err, src)
		}
		for r, rule := range rs.Rules {
			for d, def := range rule.Strings {
				got := def.Text
				if def.IsHex {
					got = def.Pattern
				}
				if !bytes.Equal(got, defs[r][d]) {
					t.Fatalf("rule %d string %d parsed to %q, written as %q\n%s", r, d, got, defs[r][d], src)
				}
			}
		}
		checkAgainstRef(t, rs, content)
	})
}
