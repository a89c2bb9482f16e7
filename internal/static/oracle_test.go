package static

import (
	"math/rand"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/entropy"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/wallet"
)

// The regular expressions ExtractEndpoints and extractURLs were written as,
// verbatim. They define what the scanners in scan.go must return and are
// compiled only here.
var (
	// stratum URLs: stratum+tcp://host:port or stratum+ssl://host:port
	reStratumURL = regexp.MustCompile(`stratum\+(tcp|ssl)://([A-Za-z0-9.\-_]+):(\d{2,5})`)
	// -o / --url style endpoints without a scheme: host:port following -o or --url=
	reDashO = regexp.MustCompile(`(?:-o\s+|--url[= ])([A-Za-z0-9.\-_]+):(\d{2,5})`)
	// bare pool-looking host:port (host contains a known pool keyword)
	rePoolHostPort = regexp.MustCompile(`\b([A-Za-z0-9.\-_]*(?:pool|xmr|monero|mine|hash)[A-Za-z0-9.\-_]*\.[A-Za-z]{2,}):(\d{2,5})\b`)
	// http(s) URLs
	reHTTPURL = regexp.MustCompile(`https?://[A-Za-z0-9.\-_]+(?::\d+)?(?:/[^\s"'<>\x00]*)?`)
)

// oracleExtractEndpoints is ExtractEndpoints as it was.
func oracleExtractEndpoints(text string) []Endpoint {
	var out []Endpoint
	seen := map[string]bool{}
	add := func(host, portStr string, tls bool) {
		port, err := strconv.Atoi(portStr)
		if err != nil || port <= 0 || port > 65535 {
			return
		}
		host = strings.ToLower(host)
		key := host + ":" + portStr
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Endpoint{Host: host, Port: port, TLS: tls})
	}
	for _, m := range reStratumURL.FindAllStringSubmatch(text, -1) {
		add(m[2], m[3], m[1] == "ssl")
	}
	for _, m := range reDashO.FindAllStringSubmatch(text, -1) {
		add(m[1], m[2], false)
	}
	for _, m := range rePoolHostPort.FindAllStringSubmatch(text, -1) {
		add(m[1], m[2], false)
	}
	return out
}

// oracleExtractURLs is extractURLs as it was.
func oracleExtractURLs(text string) []string {
	var out []string
	seen := map[string]bool{}
	for _, m := range reHTTPURL.FindAllString(text, -1) {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// oracleAnalyze is Analyze as it was: the strings materialised and joined,
// then read by the regexes. The identifiers come from wallet.ExtractCandidates
// over that joined text, which internal/wallet's corpus test holds equal to
// its own regexes on the same bodies.
func (a *Analyzer) oracleAnalyze(content []byte) Result {
	res := Result{Format: binfmt.DetectFormat(content), Entropy: entropy.Shannon(content)}
	res.SHA256, res.MD5 = binfmt.Hashes(content)
	strs := binfmt.ExtractStrings(content, a.MinStringLength)
	text := strings.Join(strs, "\n")
	res.StringCount = len(strs)
	res.Identifiers = wallet.ExtractCandidates(text)
	res.PoolEndpoints = oracleExtractEndpoints(text)
	res.URLs = oracleExtractURLs(text)
	for _, m := range a.rules.Match(content) {
		res.YARAMatches = append(res.YARAMatches, m.Rule)
	}
	res.Packer = a.scanner.DetectPacker(content)
	res.Compression = a.scanner.DetectCompression(content)
	res.Obfuscated = res.Packer != "" || (res.Compression == "" && res.Entropy > entropy.ObfuscationThreshold)
	return res
}

func checkEndpoints(t *testing.T, text string) {
	t.Helper()
	if got, want := ExtractEndpoints(text), oracleExtractEndpoints(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractEndpoints(%q)\n got  %v\n want %v", text, got, want)
	}
}

func checkURLs(t *testing.T, text string) {
	t.Helper()
	if got, want := extractURLs(text), oracleExtractURLs(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("extractURLs(%q)\n got  %q\n want %q", text, got, want)
	}
}

// endpointQuirks are the behaviours of the regexes that a scanner written
// from "find host:port" alone would get wrong.
var endpointQuirks = map[string]string{
	"kind then position":           "xmr.pool.io:1111 -o b.c:2222 stratum+tcp://a.b:3333 --url=d.e:4444 stratum+ssl://f.g:443 minexmr.com:5555",
	"dedupe across kinds":          "stratum+ssl://xmr.pool.io:3333 -o xmr.pool.io:3333 xmr.pool.io:3333 -o XMR.pool.IO:3333",
	"dedupe is by port text":       "-o a.b:080 -o a.b:80 -o a.b:0080 -o a.b:80",
	"port is the first five":       "stratum+tcp://a.b:123456789 -o c.d:655351 --url e.f:99999 -o g.h:00000x",
	"port needs two digits":        "stratum+tcp://a.b:1 -o c.d:2x --url=e.f: xmrpool.com:7 -o i.j:00 -o k.l:65536 -o m.n:65535",
	"dash-o across a newline":      "xmrig -o\npool.a.com:3333\n-o \t\r\n\fb.c:4444 -o\vd.e:5555 -ox.y:6666",
	"dash-o inside other flags":    "--o a.b:1111 -o-o c.d:2222 -o -o e.f:3333 ---url=g.h:4444 --url==i.j:5555 --url  k.l:6666 --urlm.n:7777",
	"dash-o host holds dashes":     "-o -a-.-b_:8080 -o a:b:1234 -o a.b :80",
	"matches do not overlap":       "-o a.b:12345-o c.d:80 stratum+tcp://a.b:11111stratum+tcp://c.d:22 -o a.b:1234 -o c.d:80",
	"stratum scheme and slashes":   "stratum+udp://a.b:80 stratum+tcp:/a.b:80 stratum+tcp//a.b:80 Stratum+tcp://a.b:80 stratum+tcp://:80 stratum+stratum+ssl://a.b:80",
	"stratum host stops at bytes":  "stratum+tcp://a.b/c:80 stratum+tcp://a b:80 stratum+tcp://a\xc3\xa9.b:80 stratum+tcp://a.b\xff:80",
	"pool: keyword before the dot": "pool.com:80 a.pool:80 xmr.a.bc:80 a.xmr.b:80 a.b.mine:80 hash.io:80 POOL.com:80 monero-x.org:8080",
	"pool: tld is letters":         "xmr.c0m:80 xmr.a.c:80 xmr.com1:80 xmr.a.b-c:80 xmr.a._bc:80 xmr.co.uk:80 xmr.:80 xmr..de:80",
	"pool: port is a whole word":   "xmr.a.io:123456 xmr.a.io:12345 xmr.a.io:1234x xmr.a.io:1234_ xmr.a.io:1234.5 xmr.a.io:1234-",
	"pool: starts at a boundary":   "-xmr.a.io:80 .-_xmr.a.io:81 _.xmr.a.io:82 (..pool.a.io:83) \xffhash.io:84 é.mine.io:85",
	"pool: restarts inside a host": "xmrpool.com:3333.minexmr.com:4444 xmr.a.io:80-hash.b.io:81_mine.c.io:82 a.io:80.pool.b.io:81",
	"pool: host runs on from port": "xmr.a.io:8080xmr.b.io:81 xmr.a.io:80:xmr.b.io:81 a:xmr.b.io:82:83 ::xmr.io:84",
	"pool: run across newlines":    "pool\n.a.io:80 xmr.a\n.io:81 mine.a.io\n:82 hash.a.io:\n83",
	"empty and anchors only":       "-:-o : -o\n:\n stratum+ --url= --url",
}

var urlQuirks = map[string]string{
	"in order, first kept":        "http://b.c https://a.b/x http://b.c http://b.c/ https://a.b/x",
	"scheme":                      "http:/a.b htp://a.b https//a.b httpss://a.b HTTP://a.b hhttp://a.b httphttp://a.b https://https://a.b",
	"host":                        "http:// http://-._ http://a_b-c.d http://a.b:c http://a b http://\xc3\xa9.com http://a\xff.b",
	"port is optional and greedy": "http://a.b:80 http://a.b: http://a.b:x http://a.b:80:90 http://a.b:123456789/x http://a.b:/x",
	"path":                        "http://a.b/ http://a.b/x?y=z&w#f http://a.b/x\"y http://a.b/x'y http://a.b/<x> http://a.b/x\ty http://a.b/x\x00y",
	"path takes high bytes":       "http://a.b/caf\xc3\xa9/\xff\xfe http://a.b/\xe2\x82",
	"path takes later urls":       "http://a.b/?u=http://c.d http://c.d http://a.b?u=http://e.f",
	"path across lines":           "http://a.b/x\nhttp://c.d/y\rhttp://e.f/z\fhttp://g.h/w\vi",
	"no slash before query":       "http://a.b?x=1 http://a.b#f http://a.b;x",
	"empty and prefixes only":     "h ht htt http https http: https:/ http://",
}

func TestEndpointQuirks(t *testing.T) {
	for name, text := range endpointQuirks {
		t.Run(name, func(t *testing.T) { checkEndpoints(t, text) })
	}
	// The table would pass vacuously if nothing were found at all.
	got := ExtractEndpoints(endpointQuirks["pool: restarts inside a host"])
	want := []Endpoint{
		{Host: "xmrpool.com", Port: 3333}, {Host: ".minexmr.com", Port: 4444},
		{Host: "xmr.a.io", Port: 80}, {Host: "81_mine.c.io", Port: 82}, {Host: "80.pool.b.io", Port: 81},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restarts inside a host: got %v, want %v", got, want)
	}
}

func TestURLQuirks(t *testing.T) {
	for name, text := range urlQuirks {
		t.Run(name, func(t *testing.T) { checkURLs(t, text) })
	}
	if got, want := extractURLs(urlQuirks["port is optional and greedy"]),
		[]string{"http://a.b:80", "http://a.b", "http://a.b:123456789/x"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("port is optional and greedy: got %q, want %q", got, want)
	}
}

// randomScanText glues fragments of the endpoint and URL grammars together,
// so that most of a text is a near-miss of some pattern.
func randomScanText(rng *rand.Rand) string {
	frags := []string{
		"stratum+", "tcp://", "ssl://", "-o", "--url", "=", " ", "\n", "\t", ":", ".", "-", "_", "/", "http", "s", "://",
		"pool", "xmr", "monero", "mine", "hash", "com", "io", "a", "B", "x1", "4444", "80", "7", "123456", "\xff", "\xc3\xa9", "\x00", "\"", "?q=",
	}
	var b strings.Builder
	for n := rng.Intn(24); n > 0; n-- {
		b.WriteString(frags[rng.Intn(len(frags))])
	}
	return b.String()
}

func TestScannersDifferentialGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < 50000; i++ {
		text := randomScanText(rng)
		checkEndpoints(t, text)
		checkURLs(t, text)
	}
}

// benchCorpora returns the bodies of the benchmark's two corpora (cmd/bench:
// the first 4 000 streamed samples and the materialised universe at a tenth
// of its scale, both from ecosystem seed 2019).
func benchCorpora() [][]byte {
	var bodies [][]byte
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019})
	for i := 0; i < 4000; i++ {
		bodies = append(bodies, gen.Next().Sample.Content)
	}
	cfg := ecosim.DefaultConfig().Scale(0.1)
	cfg.Seed = 2019
	u := ecosim.Generate(cfg)
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			bodies = append(bodies, s.Content)
		}
	}
	return bodies
}

// TestCorpusDifferential: over every body of both bench corpora, Analyze
// returns what it returned when it materialised the strings and read them
// with the regexes, and the scanners agree with the regexes on the command
// lines the sandbox hands to extract.Extract.
func TestCorpusDifferential(t *testing.T) {
	a, box := New(), sandbox.New(nil)
	var endpoints, urls, ids int
	for _, body := range benchCorpora() {
		got, want := a.Analyze(body), a.oracleAnalyze(body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Analyze of body %s\n got  %+v\n want %+v", want.SHA256, got, want)
		}
		endpoints, urls, ids = endpoints+len(got.PoolEndpoints), urls+len(got.URLs), ids+len(got.Identifiers)
		for _, cl := range box.Run(got.SHA256, body).CommandLines() {
			checkEndpoints(t, cl)
			checkURLs(t, cl)
		}
	}
	if endpoints == 0 || urls == 0 || ids == 0 {
		t.Fatalf("corpora yielded %d endpoints, %d URLs, %d identifiers: nothing compared", endpoints, urls, ids)
	}
	t.Logf("agreed on %d endpoints, %d URLs, %d identifiers", endpoints, urls, ids)
}

// The fuzz targets: on arbitrary bytes each scanner returns what its regexes
// return.
func FuzzEndpointsDifferential(f *testing.F) {
	seedScanFuzz(f, endpointQuirks)
	f.Fuzz(func(t *testing.T, text []byte) { checkEndpoints(t, string(text)) })
}

func FuzzURLsDifferential(f *testing.F) {
	seedScanFuzz(f, urlQuirks)
	f.Fuzz(func(t *testing.T, text []byte) { checkURLs(t, string(text)) })
}

// seedScanFuzz seeds a fuzz target with its quirk table, generated near-misses
// and what the generator's sandbox makes of its first streamed miners.
func seedScanFuzz(f *testing.F, quirks map[string]string) {
	for _, text := range quirks {
		f.Add([]byte(text))
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 32; i++ {
		f.Add([]byte(randomScanText(rng)))
	}
	gen, box := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019}), sandbox.New(nil)
	for i := 0; i < 16; i++ {
		s := gen.Next().Sample
		text, _ := binfmt.StringsText(s.Content, 6)
		f.Add([]byte(text))
		for _, cl := range box.Run(s.SHA256, s.Content).CommandLines() {
			f.Add([]byte(cl))
			f.Add([]byte(cl[:len(cl)*2/3]))
		}
	}
}
