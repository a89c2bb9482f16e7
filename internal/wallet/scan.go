package wallet

import (
	"slices"
	"strings"

	"cryptomining/internal/model"
)

// Byte classes of the identifier grammar. Every class is ASCII-only, so a
// byte of 0x80 or above — part of a multi-byte rune or invalid UTF-8 alike —
// belongs to none of them, which is how the regular expressions treated it.
const (
	cWord   uint8 = 1 << iota // [0-9A-Za-z_], what \b calls a word byte
	cBase58                   // [1-9A-HJ-NP-Za-km-z]
	cHex                      // [0-9a-fA-F]
	cBech32                   // [02-9ac-hj-np-z]
	cLocal                    // e-mail local part [a-zA-Z0-9._%+-]
	cDomain                   // e-mail domain [a-zA-Z0-9.-]
	cLetter                   // [a-zA-Z]
)

var class = func() (t [256]uint8) {
	const digits, letters = "0123456789", "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
	for bit, chars := range map[uint8]string{
		cWord:   digits + letters + "_",
		cBase58: base58Alphabet,
		cHex:    digits + "abcdefABCDEF",
		cBech32: "023456789acdefghjklmnpqrstuvwxyz",
		cLocal:  digits + letters + "._%+-",
		cDomain: digits + letters + ".-",
		cLetter: letters,
	} {
		for i := 0; i < len(chars); i++ {
			t[chars[i]] |= bit
		}
	}
	return t
}()

// allIn reports whether every byte of s is in class c.
func allIn(s string, c uint8) bool {
	for i := 0; i < len(s); i++ {
		if class[s[i]]&c == 0 {
			return false
		}
	}
	return true
}

// emailAt matches local@domain.tld around the '@' at text[at], starting no
// earlier than lo. The local part is every local byte before the '@'. The
// domain is greedy and then gives back: of the run of domain bytes after the
// '@', it keeps up to the last '.' that has a domain byte before it and two
// letters after it, plus every letter that follows.
func emailAt(text string, at, lo int) (start, end int, ok bool) {
	start = at
	for start > lo && class[text[start-1]]&cLocal != 0 {
		start--
	}
	if start == at {
		return 0, 0, false
	}
	run := at + 1
	for run < len(text) && class[text[run]]&cDomain != 0 {
		run++
	}
	for dot := run - 3; dot > at+1; dot-- {
		if text[dot] == '.' && class[text[dot+1]]&class[text[dot+2]]&cLetter != 0 {
			end = dot + 3
			for end < run && class[text[end]]&cLetter != 0 {
				end++
			}
			return start, end, true
		}
	}
	return 0, 0, false
}

// isEmail reports whether the whole of id is an e-mail identifier.
func isEmail(id string) bool {
	at := strings.IndexByte(id, '@')
	if at < 0 {
		return false
	}
	start, end, ok := emailAt(id, at, 0)
	return ok && start == 0 && end == len(id)
}

// Candidate families, in the order ExtractCandidates reports them.
const (
	famCryptoNote = iota
	famZcash
	famBitcoin
	famEthereum
	famEmail
	nFamilies
)

// minWord is the length of the shortest word wordFamily has a family for.
const minWord = 26

// wordFamily names the one address family a whole word could belong to, from
// its length and first byte alone, or -1. It only rules words out: Classify
// decides.
func wordFamily(w string) int {
	switch n := len(w); {
	case n >= 91 && n <= 114: // a 1-4 byte prefix and 90-110 base58 symbols
		return famCryptoNote
	case n == 35 && w[0] == 't':
		return famZcash
	case n >= 26 && n <= 35 && (w[0] == '1' || w[0] == '3'):
		return famBitcoin
	case n == 42 && w[0] == '0':
		return famEthereum
	}
	return -1
}

// ExtractCandidates scans free text and returns every substring that looks
// like a mining identifier, with its classified currency: CryptoNote
// addresses first, then Zcash, Bitcoin, Ethereum and e-mails, each family in
// order of first occurrence with duplicates removed. The IDs are copies: a
// 95-byte wallet does not keep a body-sized text alive.
//
// A wallet address only counts between word boundaries and is made of word
// bytes, so it is always one whole maximal run of them: one walk over the
// words of the text, looking at length and first byte, finds every address of
// every family. E-mails are found from their '@'.
func ExtractCandidates(text string) []Candidate {
	var found [nFamilies][]Candidate
	seen := map[string]bool{}
	add := func(fam int, id string) {
		if fam < 0 || seen[id] {
			return
		}
		if c := Classify(id); c != model.CurrencyUnknown {
			seen[id] = true
			found[fam] = append(found[fam], Candidate{ID: strings.Clone(id), Currency: c})
		}
	}

	// Random printable filler makes "is the next byte a word byte" a coin
	// toss, so the length of the current word is kept by masking (cWord is
	// bit 0), and the only branch taken is the end of a long enough word.
	word := 0
	for i := 0; i <= len(text); i++ {
		w := 0 // the end of the text ends a word
		if i < len(text) {
			w = int(class[text[i]] & cWord)
		}
		if word >= minWord && w == 0 {
			id := text[i-word : i]
			add(wordFamily(id), id)
		}
		word = (word + 1) & -w
	}

	// Matches do not overlap: the next one starts at or after end, so an '@'
	// directly after a match has no local part left.
	for from, end := 0, 0; ; {
		i := strings.IndexByte(text[from:], '@')
		if i < 0 {
			break
		}
		at := from + i
		from = at + 1
		if start, e, ok := emailAt(text, at, end); ok {
			add(famEmail, text[start:e])
			from, end = e, e
		}
	}
	return slices.Concat(found[:]...)
}
