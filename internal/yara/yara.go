// Package yara implements a minimal YARA-like rule engine.
//
// The paper's sanity checks apply publicly available YARA rules to decide
// whether a malware sample is a crypto-miner (§III-B). This package parses a
// small but useful subset of the YARA rule language — string definitions
// (text, nocase, hex byte sequences) and boolean conditions over them
// ("any of them", "all of them", "N of them", and/or of identifiers) — and
// matches rules against raw bytes.
//
// Parse compiles every string definition of every rule into one multi-pattern
// automaton (see matcher), so matching is a single pass over the content
// whatever the number of rules, and allocates only the results it returns.
// `nocase` folds ASCII letters only, as YARA defines it: "xmrİg" (U+0130) does
// not match "xmrig" nocase. A parsed RuleSet is immutable and may be shared by any
// number of goroutines.
package yara

import (
	"encoding/hex"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
)

// StringDef is a single string definition inside a rule ($name = "value").
type StringDef struct {
	Name    string
	Text    []byte
	NoCase  bool
	IsHex   bool
	Pattern []byte // decoded hex bytes when IsHex
}

// Condition is a parsed rule condition.
type Condition struct {
	// Kind is one of "any", "all", "n-of", "expr".
	Kind string
	// N is the count for "n-of" conditions.
	N int
	// Expr is a boolean expression tree for "expr" conditions.
	Expr *Expr
}

// Expr is a boolean expression over string identifiers.
type Expr struct {
	Op    string // "id", "and", "or", "not"
	Ident string // for Op == "id"
	Left  *Expr
	Right *Expr

	def int // for Op == "id": the index of Ident among the rule's strings
}

// Rule is one parsed YARA-like rule.
type Rule struct {
	Name      string
	Tags      []string
	Meta      map[string]string
	Strings   []StringDef
	Condition Condition
}

// MatchResult reports which strings of a rule matched.
type MatchResult struct {
	Rule           string
	Matched        bool
	MatchedStrings []string
}

// RuleSet is a compiled collection of rules, built by Parse. Rules is what
// was parsed, for inspection; matching runs on the automaton Parse compiled
// from it, so a RuleSet is read-only once built.
type RuleSet struct {
	Rules []Rule

	m *matcher
}

var (
	reRuleHeader = regexp.MustCompile(`^rule\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?::\s*([A-Za-z0-9_ ]+))?\s*\{?$`)
	reStringDef  = regexp.MustCompile(`^\$([A-Za-z0-9_]*)\s*=\s*(.+)$`)
	reNOfThem    = regexp.MustCompile(`^(\d+)\s+of\s+them$`)
	reMetaKV     = regexp.MustCompile(`^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*"?([^"]*)"?$`)
)

// Parse compiles YARA-like rule source text into a RuleSet.
func Parse(src string) (*RuleSet, error) {
	var rs RuleSet
	lines := strings.Split(src, "\n")
	var cur *Rule
	section := ""
	var condLines []string

	flush := func() error {
		if cur == nil {
			return nil
		}
		condText := strings.TrimSpace(strings.Join(condLines, " "))
		cond, err := parseCondition(condText, cur.Strings)
		if err != nil {
			return fmt.Errorf("yara: rule %q: %w", cur.Name, err)
		}
		cur.Condition = cond
		rs.Rules = append(rs.Rules, *cur)
		cur = nil
		condLines = nil
		section = ""
		return nil
	}

	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		if m := reRuleHeader.FindStringSubmatch(line); m != nil {
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Rule{Name: m[1], Meta: map[string]string{}}
			if m[2] != "" {
				cur.Tags = strings.Fields(m[2])
			}
			continue
		}
		if cur == nil {
			continue
		}
		switch {
		case line == "{":
			continue
		case line == "}":
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		case strings.HasPrefix(line, "meta:"):
			section = "meta"
			continue
		case strings.HasPrefix(line, "strings:"):
			section = "strings"
			continue
		case strings.HasPrefix(line, "condition:"):
			section = "condition"
			continue
		}
		switch section {
		case "meta":
			if m := reMetaKV.FindStringSubmatch(line); m != nil {
				cur.Meta[m[1]] = m[2]
			}
		case "strings":
			def, err := parseStringDef(line)
			if err != nil {
				return nil, fmt.Errorf("yara: rule %q: %w", cur.Name, err)
			}
			// Anonymous strings ("$") may repeat; a name may not.
			if def.Name != "$" {
				for _, prev := range cur.Strings {
					if prev.Name == def.Name {
						return nil, fmt.Errorf("yara: rule %q: duplicated string identifier %q", cur.Name, def.Name)
					}
				}
			}
			cur.Strings = append(cur.Strings, def)
		case "condition":
			condLines = append(condLines, line)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(rs.Rules) == 0 {
		return nil, fmt.Errorf("yara: no rules found in source")
	}
	rs.m = compile(rs.Rules)
	return &rs, nil
}

func parseStringDef(line string) (StringDef, error) {
	m := reStringDef.FindStringSubmatch(line)
	if m == nil {
		return StringDef{}, fmt.Errorf("malformed string definition %q", line)
	}
	def := StringDef{Name: "$" + m[1]}
	val := strings.TrimSpace(m[2])
	switch {
	case strings.HasPrefix(val, `"`):
		text, rest, err := parseQuoted(val)
		if err != nil {
			return StringDef{}, fmt.Errorf("%v in %q", err, line)
		}
		def.Text = text
		def.NoCase = strings.Contains(strings.ToLower(rest), "nocase")
	case strings.HasPrefix(val, "{"):
		end := strings.Index(val, "}")
		if end < 0 {
			return StringDef{}, fmt.Errorf("unterminated hex string in %q", line)
		}
		hexStr := strings.ReplaceAll(val[1:end], " ", "")
		raw, err := hex.DecodeString(hexStr)
		if err != nil {
			return StringDef{}, fmt.Errorf("invalid hex string in %q: %v", line, err)
		}
		def.IsHex = true
		def.Pattern = raw
	default:
		return StringDef{}, fmt.Errorf("unsupported string value %q", val)
	}
	if len(def.Text)+len(def.Pattern) == 0 {
		return StringDef{}, fmt.Errorf("empty string in %q", line)
	}
	return def, nil
}

// parseQuoted parses a double-quoted string starting at val[0], handling the
// YARA escape sequences \", \\, \n and \t. It returns the unescaped text and
// the remainder after the closing quote (the modifier list).
func parseQuoted(val string) (text []byte, rest string, err error) {
	if len(val) < 2 || val[0] != '"' {
		return nil, "", fmt.Errorf("malformed quoted string")
	}
	var out []byte
	i := 1
	for i < len(val) {
		c := val[i]
		switch c {
		case '"':
			return out, val[i+1:], nil
		case '\\':
			if i+1 >= len(val) {
				return nil, "", fmt.Errorf("unterminated escape")
			}
			switch val[i+1] {
			case '"':
				out = append(out, '"')
			case '\\':
				out = append(out, '\\')
			case 'n':
				out = append(out, '\n')
			case 't':
				out = append(out, '\t')
			default:
				out = append(out, '\\', val[i+1])
			}
			i += 2
			continue
		default:
			out = append(out, c)
		}
		i++
	}
	return nil, "", fmt.Errorf("unterminated string")
}

func parseCondition(text string, strs []StringDef) (Condition, error) {
	text = strings.TrimSpace(text)
	switch {
	case text == "" || text == "any of them":
		return Condition{Kind: "any"}, nil
	case text == "all of them":
		return Condition{Kind: "all"}, nil
	}
	if m := reNOfThem.FindStringSubmatch(text); m != nil {
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= 0 {
			return Condition{}, fmt.Errorf("invalid count in condition %q", text)
		}
		return Condition{Kind: "n-of", N: n}, nil
	}
	expr, rest, err := parseOr(text)
	if err != nil {
		return Condition{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Condition{}, fmt.Errorf("trailing tokens in condition %q", text)
	}
	if err := resolveIdents(expr, strs); err != nil {
		return Condition{}, err
	}
	return Condition{Kind: "expr", Expr: expr}, nil
}

// resolveIdents binds every identifier in e to the definition it names.
// Anonymous strings have no name to refer to.
func resolveIdents(e *Expr, strs []StringDef) error {
	if e == nil {
		return nil
	}
	if e.Op == "id" {
		for i, s := range strs {
			if s.Name == e.Ident && e.Ident != "$" {
				e.def = i
				return nil
			}
		}
		return fmt.Errorf("condition references undefined string %q", e.Ident)
	}
	if err := resolveIdents(e.Left, strs); err != nil {
		return err
	}
	return resolveIdents(e.Right, strs)
}

// Recursive-descent parser for: or := and ("or" and)* ; and := unary ("and" unary)* ;
// unary := "not" unary | "(" or ")" | identifier.
func parseOr(s string) (*Expr, string, error) {
	left, rest, err := parseAnd(s)
	if err != nil {
		return nil, "", err
	}
	for {
		r := strings.TrimSpace(rest)
		if !strings.HasPrefix(r, "or ") && r != "or" {
			return left, rest, nil
		}
		right, rr, err := parseAnd(strings.TrimPrefix(r, "or"))
		if err != nil {
			return nil, "", err
		}
		left = &Expr{Op: "or", Left: left, Right: right}
		rest = rr
	}
}

func parseAnd(s string) (*Expr, string, error) {
	left, rest, err := parseUnary(s)
	if err != nil {
		return nil, "", err
	}
	for {
		r := strings.TrimSpace(rest)
		if !strings.HasPrefix(r, "and ") && r != "and" {
			return left, rest, nil
		}
		right, rr, err := parseUnary(strings.TrimPrefix(r, "and"))
		if err != nil {
			return nil, "", err
		}
		left = &Expr{Op: "and", Left: left, Right: right}
		rest = rr
	}
}

func parseUnary(s string) (*Expr, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, "", fmt.Errorf("unexpected end of condition")
	}
	if strings.HasPrefix(s, "not ") || strings.HasPrefix(s, "not(") {
		inner, rest, err := parseUnary(strings.TrimPrefix(s, "not"))
		if err != nil {
			return nil, "", err
		}
		return &Expr{Op: "not", Left: inner}, rest, nil
	}
	if strings.HasPrefix(s, "(") {
		inner, rest, err := parseOr(s[1:])
		if err != nil {
			return nil, "", err
		}
		rest = strings.TrimSpace(rest)
		if !strings.HasPrefix(rest, ")") {
			return nil, "", fmt.Errorf("missing closing parenthesis")
		}
		return inner, rest[1:], nil
	}
	if strings.HasPrefix(s, "$") {
		end := 1
		for end < len(s) && (isIdentChar(s[end])) {
			end++
		}
		return &Expr{Op: "id", Ident: s[:end]}, s[end:], nil
	}
	return nil, "", fmt.Errorf("unexpected token near %q", s)
}

func isIdentChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// Match evaluates every rule in the set over one scan of content and returns
// the results of the rules that matched, in source order, each with its
// matched strings in definition order.
func (rs *RuleSet) Match(content []byte) []MatchResult {
	m := rs.m
	var buf [stackWords]uint64
	hits := m.scan(content, buf[:])
	nRules, nNames := 0, 0
	for i := range m.rules {
		if ok, n := m.rules[i].eval(hits); ok {
			nRules++
			nNames += n
		}
	}
	if nRules == 0 {
		return nil
	}
	// Two allocations whatever matched: the results, and one backing array
	// their MatchedStrings are cut from.
	out := make([]MatchResult, nRules)
	names := make([]string, nNames)
	o, k := 0, 0
	for i := range m.rules {
		r := &m.rules[i]
		ok, n := r.eval(hits)
		if !ok {
			continue
		}
		out[o] = MatchResult{Rule: r.name, Matched: true}
		if n > 0 {
			start := k
			for d := r.lo; d < r.hi; d++ {
				if has(hits, d) {
					names[k] = m.names[d]
					k++
				}
			}
			out[o].MatchedStrings = names[start:k:k]
		}
		o++
	}
	return out
}

// AnyMatch reports whether at least one rule in the set matches content.
// Only tests call it, as the short-circuit oracle for Match.
func (rs *RuleSet) AnyMatch(content []byte) bool {
	m := rs.m
	var buf [stackWords]uint64
	hits := m.scan(content, buf[:])
	for i := range m.rules {
		if ok, _ := m.rules[i].eval(hits); ok {
			return true
		}
	}
	return false
}

// MinerRulesSource is a built-in rule set approximating the public YARA rules
// the paper applies to detect crypto-mining capability: Stratum endpoints,
// well-known pool domains, mining command-line options and CryptoNote wallet
// markers.
const MinerRulesSource = `
rule CryptoMiner_Stratum : miner
{
    meta:
        description = "Stratum mining protocol artifacts"
    strings:
        $s1 = "stratum+tcp://" nocase
        $s2 = "stratum+ssl://" nocase
        $s3 = "\"method\":\"login\"" nocase
        $s4 = "\"method\": \"login\"" nocase
        $s5 = "mining.subscribe" nocase
    condition:
        any of them
}

rule CryptoMiner_PoolDomains : miner
{
    meta:
        description = "Known mining pool domains"
    strings:
        $p1 = "crypto-pool.fr" nocase
        $p2 = "dwarfpool.com" nocase
        $p3 = "minexmr.com" nocase
        $p4 = "supportxmr.com" nocase
        $p5 = "nanopool.org" nocase
        $p6 = "minergate.com" nocase
        $p7 = "moneropool.com" nocase
        $p8 = "prohash.net" nocase
        $p9 = "monerohash.com" nocase
        $p10 = "ppxxmr.com" nocase
        $p11 = "poolto.be" nocase
    condition:
        any of them
}

rule CryptoMiner_CommandLine : miner
{
    meta:
        description = "Mining tool command line options"
    strings:
        $c1 = "--donate-level" nocase
        $c2 = "--cpu-priority" nocase
        $c3 = "--max-cpu-usage" nocase
        $c4 = "-o stratum" nocase
        $c5 = "--algo=cryptonight" nocase
        $c6 = "--coin=monero" nocase
    condition:
        any of them
}

rule CryptoMiner_XmrigMarkers : miner
{
    meta:
        description = "Stock miner binary markers"
    strings:
        $x1 = "xmrig" nocase
        $x2 = "xmr-stak" nocase
        $x3 = "claymore" nocase
        $x4 = "cryptonight"  nocase
        $x5 = "randomx" nocase
    condition:
        any of them
}
`

// MinerRules returns MinerRulesSource parsed. The source is parsed and
// compiled once per process and every caller gets the same immutable RuleSet,
// so building an analyzer (every engine boot, recovery and scenario fork does)
// costs nothing. It panics on error because the source is a compile-time
// constant validated by tests.
func MinerRules() *RuleSet { return minerRules() }

var minerRules = sync.OnceValue(func() *RuleSet {
	rs, err := Parse(MinerRulesSource)
	if err != nil {
		panic("yara: built-in miner rules failed to parse: " + err.Error())
	}
	return rs
})
