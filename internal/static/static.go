// Package static is the static-analysis stage of the pipeline: without
// executing a sample it extracts printable strings, candidate mining
// identifiers, pool endpoints and in-the-wild URLs, matches the built-in YARA
// miner rules, determines the executable format, and measures obfuscation
// (packer signatures and entropy), as described in §III-B/§III-C of the paper.
//
// Analyze copies the body's printable strings into one transient text and
// reads it with hand-written byte scanners (scan.go here, internal/wallet for
// identifiers); the regular expressions they replaced define their behaviour
// and live on in oracle_test.go, where differential tests over the generated
// corpora and fuzz targets hold the two together.
package static

import (
	"strconv"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/entropy"
	"cryptomining/internal/model"
	"cryptomining/internal/wallet"
	"cryptomining/internal/yara"
)

// Result is the static-analysis outcome for one sample.
type Result struct {
	SHA256 string
	MD5    string
	Format model.ExecutableFormat
	// StringCount is the number of printable strings found in the binary.
	StringCount int
	// Identifiers are candidate mining identifiers (wallets / e-mails).
	Identifiers []wallet.Candidate
	// PoolEndpoints are "host:port" mining endpoints found in strings
	// (stratum URLs or -o arguments).
	PoolEndpoints []Endpoint
	// URLs are http(s) URLs embedded in the binary.
	URLs []string
	// YARAMatches are the names of the miner rules that matched.
	YARAMatches []string
	// Packer is the identified packer, if any.
	Packer string
	// Compression is the identified compression container, if any.
	Compression string
	// Entropy is the Shannon entropy of the full content.
	Entropy float64
	// Obfuscated is true when a packer was found or the entropy exceeds the
	// obfuscation threshold.
	Obfuscated bool
}

// Endpoint is a host:port mining endpoint recovered from static strings.
type Endpoint struct {
	Host string
	Port int
	// TLS is true for stratum+ssl endpoints.
	TLS bool
}

// String renders the endpoint as host:port.
func (e Endpoint) String() string { return e.Host + ":" + strconv.Itoa(e.Port) }

// MinesAnything reports whether the static pass found either an identifier or
// a pool endpoint — i.e. static analysis alone was enough to characterize the
// miner.
func (r *Result) MinesAnything() bool {
	return len(r.Identifiers) > 0 || len(r.PoolEndpoints) > 0
}

// Analyzer performs static analysis.
type Analyzer struct {
	rules   *yara.RuleSet
	scanner *binfmt.Scanner
	// MinStringLength is the minimum printable-string length extracted.
	MinStringLength int
}

// New returns an analyzer with the built-in miner YARA rules and packer
// signatures.
func New() *Analyzer {
	return &Analyzer{
		rules:           yara.MinerRules(),
		scanner:         binfmt.NewScanner(),
		MinStringLength: 6,
	}
}

// NewWithRules returns an analyzer using a custom YARA rule set.
func NewWithRules(rules *yara.RuleSet) *Analyzer {
	a := New()
	if rules != nil {
		a.rules = rules
	}
	return a
}

// Analyze performs the full static pass over a sample's content.
func (a *Analyzer) Analyze(content []byte) Result {
	sha, md5hex := binfmt.Hashes(content)
	res := Result{
		SHA256:  sha,
		MD5:     md5hex,
		Format:  binfmt.DetectFormat(content),
		Entropy: entropy.Shannon(content),
	}
	// The text is body-sized and dies with this call: the scanners copy what
	// they return.
	text, n := binfmt.StringsText(content, a.MinStringLength)
	res.StringCount = n
	res.Identifiers = wallet.ExtractCandidates(text)
	res.PoolEndpoints = ExtractEndpoints(text)
	res.URLs = extractURLs(text)

	for _, m := range a.rules.Match(content) {
		res.YARAMatches = append(res.YARAMatches, m.Rule)
	}

	res.Packer = a.scanner.DetectPacker(content)
	res.Compression = a.scanner.DetectCompression(content)
	res.Obfuscated = res.Packer != "" ||
		(res.Compression == "" && res.Entropy > entropy.ObfuscationThreshold)
	return res
}
