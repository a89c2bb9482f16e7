package yara

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// refMatch is the matcher this package had before the automaton, kept as the
// oracle the compiled matcher is compared with: one bytes.Contains per string
// definition, `nocase` by lower-casing both sides with lower, the condition
// counted by definition. With asciiLower it is the specification; with
// bytes.ToLower it is what the old code did.
func refMatch(rs *RuleSet, content []byte, lower func([]byte) []byte) []MatchResult {
	var folded []byte
	var out []MatchResult
	for _, r := range rs.Rules {
		res := MatchResult{Rule: r.Name}
		matched := make([]bool, len(r.Strings))
		n := 0
		for i, def := range r.Strings {
			switch {
			case def.IsHex:
				matched[i] = bytes.Contains(content, def.Pattern)
			case def.NoCase:
				if folded == nil {
					folded = lower(content)
				}
				matched[i] = bytes.Contains(folded, lower(def.Text))
			default:
				matched[i] = bytes.Contains(content, def.Text)
			}
			if matched[i] {
				n++
				res.MatchedStrings = append(res.MatchedStrings, def.Name)
			}
		}
		switch r.Condition.Kind {
		case "any":
			res.Matched = n > 0
		case "all":
			res.Matched = n > 0 && n == len(r.Strings)
		case "n-of":
			res.Matched = n >= r.Condition.N
		case "expr":
			res.Matched = refEval(r.Condition.Expr, r.Strings, matched)
		}
		if res.Matched {
			out = append(out, res)
		}
	}
	return out
}

func refEval(e *Expr, strs []StringDef, matched []bool) bool {
	switch e.Op {
	case "id":
		for i, s := range strs {
			if s.Name == e.Ident {
				return matched[i]
			}
		}
		return false
	case "and":
		return refEval(e.Left, strs, matched) && refEval(e.Right, strs, matched)
	case "or":
		return refEval(e.Left, strs, matched) || refEval(e.Right, strs, matched)
	default: // "not"
		return !refEval(e.Left, strs, matched)
	}
}

func asciiLower(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return out
}

func TestParseSimpleRule(t *testing.T) {
	src := `
rule TestRule : tag1 tag2
{
    meta:
        author = "test"
        description = "a test rule"
    strings:
        $a = "hello"
        $b = "world" nocase
        $h = { DE AD BE EF }
    condition:
        any of them
}
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v", err)
	}
	if len(rs.Rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(rs.Rules))
	}
	r := rs.Rules[0]
	if r.Name != "TestRule" {
		t.Errorf("rule name = %q", r.Name)
	}
	if len(r.Tags) != 2 || r.Tags[0] != "tag1" {
		t.Errorf("tags = %v", r.Tags)
	}
	if r.Meta["author"] != "test" {
		t.Errorf("meta author = %q", r.Meta["author"])
	}
	if len(r.Strings) != 3 {
		t.Fatalf("strings = %d, want 3", len(r.Strings))
	}
	if !r.Strings[1].NoCase {
		t.Error("string $b should be nocase")
	}
	if !r.Strings[2].IsHex || len(r.Strings[2].Pattern) != 4 {
		t.Errorf("hex string not parsed: %+v", r.Strings[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no rules", "// just a comment"},
		{"bad string", "rule R {\n strings:\n $a = unquoted\n condition:\n any of them\n}"},
		{"bad hex", "rule R {\n strings:\n $a = { ZZ }\n condition:\n any of them\n}"},
		{"undefined ident", "rule R {\n strings:\n $a = \"x\"\n condition:\n $a and $b\n}"},
		{"bad condition", "rule R {\n strings:\n $a = \"x\"\n condition:\n $a and and\n}"},
		{"duplicate ident", "rule R {\n strings:\n $a = \"x\"\n $a = \"y\"\n condition:\n any of them\n}"},
		{"anonymous ident referenced", "rule R {\n strings:\n $ = \"x\"\n $b = \"y\"\n condition:\n $ and $b\n}"},
		{"empty text", "rule R {\n strings:\n $a = \"\"\n condition:\n any of them\n}"},
		{"empty hex", "rule R {\n strings:\n $a = { }\n condition:\n any of them\n}"},
	}
	for _, tt := range cases {
		if _, err := Parse(tt.src); err == nil {
			t.Errorf("%s: expected parse error", tt.name)
		}
	}
}

func TestMatchAnyOfThem(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $a = "stratum+tcp://"
  $b = "nothing-here"
 condition:
  any of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	content := []byte("connect to stratum+tcp://pool.example.com:3333")
	results := rs.Match(content)
	if len(results) != 1 || !results[0].Matched {
		t.Fatalf("expected match, got %v", results)
	}
	if len(results[0].MatchedStrings) != 1 || results[0].MatchedStrings[0] != "$a" {
		t.Errorf("matched strings = %v", results[0].MatchedStrings)
	}
	if rs.AnyMatch([]byte("benign content")) {
		t.Error("benign content should not match")
	}
}

func TestMatchAllOfThem(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $a = "alpha"
  $b = "beta"
 condition:
  all of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AnyMatch([]byte("alpha and beta together")) {
		t.Error("both strings present should match")
	}
	if rs.AnyMatch([]byte("only alpha present")) {
		t.Error("one string missing should not match all-of-them")
	}
}

func TestMatchNOfThem(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $a = "one"
  $b = "two"
  $c = "three"
 condition:
  2 of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AnyMatch([]byte("one and two")) {
		t.Error("2 strings should satisfy 2-of-them")
	}
	if rs.AnyMatch([]byte("only one here")) {
		t.Error("1 string should not satisfy 2-of-them")
	}
}

// Anonymous strings share the name "$" but count one each; the same
// identifier in two rules is two definitions.
func TestMatchAnonymousStrings(t *testing.T) {
	rs, err := Parse(`rule All {
 strings:
  $ = "alpha"
  $ = "beta"
 condition:
  all of them
}
rule Two {
 strings:
  $ = "alpha"
  $ = "beta"
  $a = "gamma"
 condition:
  2 of them
}
rule Other {
 strings:
  $a = "delta"
 condition:
  $a
}`)
	if err != nil {
		t.Fatal(err)
	}
	got := rs.Match([]byte("alpha, then beta"))
	if len(got) != 2 || got[0].Rule != "All" || got[1].Rule != "Two" {
		t.Fatalf("both anonymous strings present: got %v, want All and Two", got)
	}
	if want := []string{"$", "$"}; !slices.Equal(got[0].MatchedStrings, want) || !slices.Equal(got[1].MatchedStrings, want) {
		t.Errorf("matched strings = %v and %v, want %v each", got[0].MatchedStrings, got[1].MatchedStrings, want)
	}
	if rs.AnyMatch([]byte("alpha alone, twice: alpha")) {
		t.Error("one anonymous string must not count for two")
	}
}

func TestMatchBooleanExpr(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $pool = "minexmr.com"
  $login = "login"
  $benign = "EULA"
 condition:
  ($pool or $login) and not $benign
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AnyMatch([]byte("config pool=minexmr.com user=x")) {
		t.Error("pool string without benign marker should match")
	}
	if rs.AnyMatch([]byte("minexmr.com mentioned in EULA text")) {
		t.Error("benign marker should suppress match via not")
	}
	if rs.AnyMatch([]byte("unrelated content")) {
		t.Error("no strings should not match")
	}
}

func TestMatchNoCase(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $a = "XMRig" nocase
 condition:
  any of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AnyMatch([]byte("running XMRIG v5.0")) {
		t.Error("nocase should match uppercase")
	}
	if !rs.AnyMatch([]byte("running xmrig v5.0")) {
		t.Error("nocase should match lowercase")
	}
}

func TestMatchHexString(t *testing.T) {
	rs, err := Parse(`rule R {
 strings:
  $h = { 4D 5A 90 00 }
 condition:
  any of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.AnyMatch([]byte{0x00, 0x4D, 0x5A, 0x90, 0x00, 0xFF}) {
		t.Error("hex pattern should match")
	}
	if rs.AnyMatch([]byte{0x4D, 0x5A, 0x91}) {
		t.Error("partial hex pattern should not match")
	}
}

func TestMultipleRules(t *testing.T) {
	src := `
rule A {
 strings:
  $a = "aaa"
 condition:
  any of them
}
rule B {
 strings:
  $b = "bbb"
 condition:
  any of them
}
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rs.Rules))
	}
	results := rs.Match([]byte("aaa and bbb"))
	if len(results) != 2 {
		t.Errorf("both rules should match, got %d", len(results))
	}
}

func TestBuiltinMinerRulesParse(t *testing.T) {
	rs := MinerRules()
	if len(rs.Rules) != 4 {
		t.Errorf("built-in rules = %d, want 4", len(rs.Rules))
	}
}

func TestBuiltinMinerRulesDetection(t *testing.T) {
	rs := MinerRules()
	positives := []string{
		"xmrig.exe -o stratum+tcp://pool.minexmr.com:4444 -u 4AAA -p x",
		`{"method":"login","params":{"login":"4ABC","pass":"x"}}`,
		"connecting to dwarfpool.com:8005",
		"claymore cryptonote gpu miner",
		"--donate-level=1 --max-cpu-usage=50",
	}
	for _, p := range positives {
		if !rs.AnyMatch([]byte(p)) {
			t.Errorf("built-in rules should match %q", p)
		}
	}
	negatives := []string{
		"GET /index.html HTTP/1.1",
		"This program cannot be run in DOS mode",
		"calculator application v2.0",
	}
	for _, n := range negatives {
		if rs.AnyMatch([]byte(n)) {
			t.Errorf("built-in rules should not match %q", n)
		}
	}
}

func TestRuleMatchEmptyContent(t *testing.T) {
	rs := MinerRules()
	if rs.AnyMatch(nil) {
		t.Error("empty content should not match")
	}
}

func TestConditionAllOfThemEmptyStrings(t *testing.T) {
	// A rule with no strings and "all of them" should never match.
	rs, err := Parse(`rule R {
 condition:
  all of them
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rules[0].Strings) != 0 {
		t.Fatalf("strings = %v, want none", rs.Rules[0].Strings)
	}
	if rs.AnyMatch([]byte("x")) || rs.AnyMatch(nil) {
		t.Error("all-of-them with no strings should not match")
	}
}

func BenchmarkMinerRulesMatch(b *testing.B) {
	rs := MinerRules()
	content := []byte(strings.Repeat("padding data ", 1000) +
		"xmrig -o stratum+tcp://pool.supportxmr.com:3333 -u 4ABC --donate-level=1")
	b.SetBytes(int64(len(content)))
	b.ReportAllocs()
	for b.Loop() {
		rs.Match(content)
	}
}
