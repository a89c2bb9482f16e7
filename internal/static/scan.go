package static

import (
	"strconv"
	"strings"
)

// Byte classes of the endpoint and URL grammar. All but cPath are ASCII-only,
// so a byte of 0x80 or above — part of a multi-byte rune or invalid UTF-8
// alike — is in none of them, which is how the regular expressions treated
// it; cPath, a negated class, holds them all.
const (
	cWord   uint8 = 1 << iota // [0-9A-Za-z_], what \b calls a word byte
	cHost                     // [A-Za-z0-9.\-_]
	cLetter                   // [A-Za-z]
	cDigit                    // \d
	cSpace                    // \s: [\t\n\f\r ]
	cPath                     // URL path: [^\s"'<>\x00]
)

var class = func() (t [256]uint8) {
	const digits, letters = "0123456789", "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for bit, chars := range map[uint8]string{
		cWord:   digits + letters + "_",
		cHost:   digits + letters + ".-_",
		cLetter: letters,
		cDigit:  digits,
		cSpace:  "\t\n\f\r ",
	} {
		for i := 0; i < len(chars); i++ {
			t[chars[i]] |= bit
		}
	}
	for c := range t {
		if !strings.ContainsRune("\t\n\f\r \"'<>\x00", rune(c)) {
			t[c] |= cPath
		}
	}
	return t
}()

// byteAt returns text[i], or past the end of text a NUL, which is in no class.
func byteAt(text string, i int) byte {
	if i < len(text) {
		return text[i]
	}
	return 0
}

// is reports whether text[i] exists and is in class c.
func is(text string, i int, c uint8) bool { return class[byteAt(text, i)]&c != 0 }

// skip returns the end of the run of class c bytes that starts at text[i].
func skip(text string, i int, c uint8) int {
	for is(text, i, c) {
		i++
	}
	return i
}

// eachAnchor calls match at every occurrence of anchor in text that a match
// may still hold. Matches of one pattern do not overlap: match returns the
// end of what it matched around at, or -1, and after a match the search goes
// on from that end, which later calls are handed as lo.
func eachAnchor(text, anchor string, match func(at, lo int) (end int)) {
	for i, lo := 0, 0; ; {
		n := strings.Index(text[i:], anchor)
		if n < 0 {
			return
		}
		at := i + n
		i = at + len(anchor)
		if end := match(at, lo); end >= 0 {
			i, lo = end, end
		}
	}
}

// hostPort matches ([A-Za-z0-9.\-_]+):(\d{2,5}) at text[i:] and returns the
// ':' and the end of the port, or ok false. No boundary is asked for after
// the port: of a longer run of digits it is the first five.
func hostPort(text string, i int) (colon, end int, ok bool) {
	colon = skip(text, i, cHost)
	if colon == i || byteAt(text, colon) != ':' {
		return 0, 0, false
	}
	end = min(skip(text, colon+1, cDigit), colon+6)
	return colon, end, end >= colon+3
}

// dashOHost returns where the host starts after the `-o\s+` or `--url[= ]`
// that begins at the '-' at text[i], or -1.
func dashOHost(text string, i int) int {
	switch rest := text[i+1:]; {
	case strings.HasPrefix(rest, "o"):
		if host := skip(text, i+2, cSpace); host > i+2 {
			return host
		}
	case strings.HasPrefix(rest, "-url=") || strings.HasPrefix(rest, "-url "):
		return i + len("--url=")
	}
	return -1
}

// poolKeywords mark a bare host as a pool's.
var poolKeywords = [...]string{"pool", "xmr", "monero", "mine", "hash"}

// poolHostPort matches
//
//	\b([A-Za-z0-9.\-_]*(?:pool|xmr|monero|mine|hash)[A-Za-z0-9.\-_]*\.[A-Za-z]{2,}):(\d{2,5})\b
//
// around the ':' at text[colon], starting no earlier than lo, and returns
// where the host starts and the port ends. The port is a whole run of two to
// five digits. The host ends in a '.' and two or more letters, holds a
// keyword before that '.', and starts at the first word boundary of the run
// of host bytes before the ':' — a later start would only hold less.
func poolHostPort(text string, colon, lo int) (start, end int, ok bool) {
	end = skip(text, colon+1, cDigit)
	if n := end - colon - 1; n < 2 || n > 5 || is(text, end, cWord) {
		return 0, 0, false
	}
	dot := colon - 1
	for dot >= lo && class[text[dot]]&cLetter != 0 {
		dot--
	}
	if dot < lo || colon-dot < 3 || text[dot] != '.' {
		return 0, 0, false
	}
	start = dot
	for start > lo && class[text[start-1]]&cHost != 0 {
		start--
	}
	for start < dot && is(text, start, cWord) == (start > 0 && is(text, start-1, cWord)) {
		start++
	}
	for _, kw := range poolKeywords {
		if strings.Contains(text[start:dot], kw) {
			return start, end, true
		}
	}
	return 0, 0, false
}

// ExtractEndpoints finds mining endpoints (host:port) in free text: stratum
// URLs first, then -o/--url arguments, then pool-looking host:port pairs,
// each kind in order of appearance, hosts lower-cased, duplicates removed.
// Each kind is found from its anchor — "stratum+", '-', ':' — and checked
// byte by byte from there. The hosts are copies: a result does not keep text
// alive.
func ExtractEndpoints(text string) []Endpoint {
	var out []Endpoint
	type key struct{ host, port string }
	seen := map[key]bool{}
	add := func(host, portStr string, tls bool) {
		port, err := strconv.Atoi(portStr)
		if err != nil || port <= 0 || port > 65535 {
			return
		}
		host = strings.ToLower(host)
		if k := (key{host, portStr}); !seen[k] {
			seen[k] = true
			out = append(out, Endpoint{Host: strings.Clone(host), Port: port, TLS: tls})
		}
	}
	addHostPort := func(host int, tls bool) (end int) {
		colon, end, ok := hostPort(text, host)
		if !ok {
			return -1
		}
		add(text[host:colon], text[colon+1:end], tls)
		return end
	}

	// stratum\+(tcp|ssl)://([A-Za-z0-9.\-_]+):(\d{2,5})
	eachAnchor(text, "stratum+", func(at, _ int) int {
		scheme := at + len("stratum+")
		tls := strings.HasPrefix(text[scheme:], "ssl://")
		if !tls && !strings.HasPrefix(text[scheme:], "tcp://") {
			return -1
		}
		return addHostPort(scheme+len("tcp://"), tls)
	})
	// (?:-o\s+|--url[= ])([A-Za-z0-9.\-_]+):(\d{2,5})
	eachAnchor(text, "-", func(at, _ int) int {
		if host := dashOHost(text, at); host >= 0 {
			return addHostPort(host, false)
		}
		return -1
	})
	eachAnchor(text, ":", func(colon, lo int) int {
		start, end, ok := poolHostPort(text, colon, lo)
		if !ok {
			return -1
		}
		add(text[start:colon], text[colon+1:end], false)
		return end
	})
	return out
}

// extractURLs finds
//
//	https?://[A-Za-z0-9.\-_]+(?::\d+)?(?:/[^\s"'<>\x00]*)?
//
// in order of first appearance, as copies, from each "http" on: nothing in
// the pattern ever has to give a byte back, so every part takes all it can.
func extractURLs(text string) []string {
	var out []string
	seen := map[string]bool{}
	eachAnchor(text, "http", func(at, _ int) int {
		host := at + len("http")
		if byteAt(text, host) == 's' {
			host++
		}
		if !strings.HasPrefix(text[host:], "://") {
			return -1
		}
		host += len("://")
		end := skip(text, host, cHost)
		if end == host {
			return -1
		}
		if byteAt(text, end) == ':' && is(text, end+1, cDigit) {
			end = skip(text, end+1, cDigit)
		}
		if byteAt(text, end) == '/' {
			end = skip(text, end+1, cPath)
		}
		if url := text[at:end]; !seen[url] {
			seen[url] = true
			out = append(out, strings.Clone(url))
		}
		return end
	})
	return out
}
