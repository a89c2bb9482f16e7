// Package static is the static-analysis stage of the pipeline: without
// executing a sample it extracts printable strings, candidate mining
// identifiers, pool endpoints and in-the-wild URLs, matches the built-in YARA
// miner rules, determines the executable format, and measures obfuscation
// (packer signatures and entropy), as described in §III-B/§III-C of the paper.
//
// Analyze reads the body once. One loop steps a YARA automaton that holds
// both the miner rules and the packer and compression markers, counts the
// byte histogram the entropy comes from, and joins the printable strings into
// a pooled text, which hand-written byte scanners then read (scan.go here,
// internal/wallet for identifiers). No digest is taken: a sample carries its
// hash, or the engine computes it at submission. The one-pass-per-finding
// functions — binfmt.ExtractStrings, entropy.Shannon, yara.RuleSet.Match and
// binfmt.Scanner's DetectPacker and DetectCompression — and the regular
// expressions the scanners replaced define the behaviour and live on as the
// oracles of oracle_test.go, where differential tests over the generated
// corpora and fuzz targets hold the two together.
package static

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/entropy"
	"cryptomining/internal/model"
	"cryptomining/internal/wallet"
	"cryptomining/internal/yara"
)

// Result is the static-analysis outcome for one sample.
type Result struct {
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

// Analyzer performs static analysis.
type Analyzer struct {
	// rules holds the miner rules, then one rule per packer or compression
	// marker the automaton finds anywhere in a body (see markerRules).
	rules *yara.RuleSet
	// miner is the number of miner rules: rules.Rules[:miner].
	miner int
	// markers are the packer signatures, in their order.
	markers []marker
	// MinStringLength is the minimum printable-string length extracted.
	MinStringLength int
}

// marker is one packer or compression signature and where its hit is read.
type marker struct {
	binfmt.PackerSignature
	// rule is the index of the marker's rule in Analyzer.rules, or -1 for a
	// marker shorter than binfmt.MinAnywhereMarker, which matches only as a
	// prefix of the body.
	rule int
}

// New returns an analyzer with the built-in miner YARA rules and packer
// signatures.
func New() *Analyzer {
	a := *defaultAnalyzer()
	return &a
}

// defaultAnalyzer compiles the built-in rules and markers once per process:
// every analyzer shares the immutable automaton.
var defaultAnalyzer = sync.OnceValue(func() *Analyzer {
	return newAnalyzer(binfmt.DefaultPackerSignatures())
})

// newAnalyzer compiles the miner rules and the packer markers of sigs into
// one automaton.
func newAnalyzer(sigs []binfmt.PackerSignature) *Analyzer {
	miner := len(yara.MinerRules().Rules)
	src, markers := markerRules(sigs, miner)
	rules, err := yara.Parse(yara.MinerRulesSource + src)
	if err != nil {
		panic("static: packer marker rules failed to parse: " + err.Error())
	}
	return &Analyzer{rules: rules, miner: miner, markers: markers, MinStringLength: 6}
}

// markerRules writes one rule per signature whose marker matches anywhere
// (binfmt.MinAnywhereMarker bytes or more), to follow first rules: a
// case-sensitive string, or a hex string when the marker holds a byte that a
// quoted string cannot. It returns the source and the signatures, each with
// the index its rule will have.
func markerRules(sigs []binfmt.PackerSignature, first int) (string, []marker) {
	var src strings.Builder
	markers := make([]marker, len(sigs))
	for i, sig := range sigs {
		markers[i] = marker{PackerSignature: sig, rule: -1}
		if len(sig.Marker) < binfmt.MinAnywhereMarker {
			continue
		}
		markers[i].rule = first
		first++
		fmt.Fprintf(&src, "rule marker_%d\n{\n strings:\n  $m = %s\n condition:\n  any of them\n}\n", i, quoteMarker(sig.Marker))
	}
	return src.String(), markers
}

// quoteMarker renders a marker as a YARA string: quoted when every byte is
// printable ASCII other than the quote and the backslash, hex otherwise.
func quoteMarker(m []byte) string {
	for _, c := range m {
		if binfmt.Printable(c) == 0 || c == '"' || c == '\\' {
			return "{ " + hex.EncodeToString(m) + " }"
		}
	}
	return `"` + string(m) + `"`
}

// textBufs holds the buffers Analyze joins a body's strings into. A buffer
// grown past maxPooledText is dropped instead of kept.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledText = 1 << 20

// Analyze performs the full static pass over a sample's content. One loop
// over the body steps the YARA automaton (the miner rules and the packer
// markers), counts the byte histogram the entropy is computed from, and
// joins the printable strings into a pooled text that the identifier,
// endpoint and URL scanners then read.
func (a *Analyzer) Analyze(content []byte) Result {
	res := Result{Format: binfmt.DetectFormat(content)}

	auto := a.rules.Automaton()
	var hitBuf [4]uint64
	hits := a.rules.NewHits(hitBuf[:])
	var counts [256]int
	minLen := a.MinStringLength
	if minLen <= 0 {
		minLen = 4
	}
	buf := textBufs.Get().(*[]byte)
	text := (*buf)[:0]
	// The strings and their separators never outgrow the body by more than
	// one byte: a buffer too short for the body is replaced once, not grown
	// in the loop.
	if need := len(content) + 1; cap(text) < need && need <= maxPooledText {
		text = make([]byte, 0, need)
	}
	s, run, n := uint32(0), 0, 0
	for i, c := range content {
		counts[c]++
		if s = auto.Step(s, c); auto.Ends(s) {
			auto.Record(hits, s, content[:i+1])
		}
		// As in binfmt's strings pass, the run length is kept by masking:
		// the branch taken is the rare end of a long enough run.
		p := binfmt.Printable(c)
		if run >= minLen && p == 0 {
			text = append(append(text, content[i-run:i]...), '\n')
			n++
		}
		run = (run + 1) & -p
	}
	if run >= minLen {
		text = append(append(text, content[len(content)-run:]...), '\n')
		n++
	}
	if n > 0 {
		text = text[:len(text)-1]
	}

	res.StringCount = n
	res.Entropy = entropy.FromCounts(&counts, len(content))
	// The text is read in place and the buffer reused: the scanners copy
	// what they return.
	str := unsafe.String(unsafe.SliceData(text), len(text))
	res.Identifiers = wallet.ExtractCandidates(str)
	res.PoolEndpoints = ExtractEndpoints(str)
	res.URLs = extractURLs(str)
	if cap(text) <= maxPooledText {
		*buf = text[:0]
		textBufs.Put(buf)
	}

	for r := range a.miner {
		if a.rules.RuleMatches(r, hits) {
			if res.YARAMatches == nil {
				res.YARAMatches = make([]string, 0, a.miner-r)
			}
			res.YARAMatches = append(res.YARAMatches, a.rules.Rules[r].Name)
		}
	}
	res.Packer, res.Compression = a.detectMarkers(content, hits)
	res.Obfuscated = res.Packer != "" ||
		(res.Compression == "" && res.Entropy > entropy.ObfuscationThreshold)
	return res
}

// detectMarkers returns the first packer and the first compression container
// in signature order whose marker the scan found, as binfmt.Scanner's
// DetectPacker and DetectCompression name them.
func (a *Analyzer) detectMarkers(content []byte, hits []uint64) (packer, compression string) {
	for _, m := range a.markers {
		found := &packer
		if m.Compression {
			found = &compression
		}
		if *found != "" {
			continue
		}
		if m.rule >= 0 && a.rules.RuleMatches(m.rule, hits) ||
			m.rule < 0 && bytes.HasPrefix(content, m.Marker) {
			*found = m.Name
		}
	}
	return packer, compression
}
