// Package wallet classifies and validates cryptocurrency mining identifiers.
//
// Miners authenticate to pools with an identifier — usually a wallet address,
// sometimes an e-mail (minergate) or a free-form user name. The extraction
// stage of the pipeline recovers these identifiers from command lines, static
// strings and Stratum login packets, and this package decides which
// cryptocurrency each identifier belongs to (Table IV of the paper) and
// whether it is syntactically plausible.
//
// Address formats implemented:
//
//   - Monero / Aeon / Sumokoin / Intense / Turtlecoin / Bytecoin / Electroneum:
//     CryptoNote base58 addresses with a network-byte prefix.
//   - Bitcoin: Base58Check (prefix 1 or 3) and bech32-style bc1 addresses.
//   - Ethereum: 0x-prefixed 40-hex-digit addresses.
//   - Zcash: transparent t1/t3 addresses.
//   - E-mail identifiers.
//
// Classify and ExtractCandidates are hand-written byte scanners over the
// class table in scan.go; the regular expressions they replaced define their
// behaviour and live on in oracle_test.go, where differential tests and a
// fuzz target hold the two together.
package wallet

import (
	"crypto/sha256"
	"math/big"
	"strings"

	"cryptomining/internal/model"
)

// base58 alphabet shared by Bitcoin and CryptoNote currencies.
const base58Alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

var base58Index = func() map[byte]int {
	m := make(map[byte]int, len(base58Alphabet))
	for i := 0; i < len(base58Alphabet); i++ {
		m[base58Alphabet[i]] = i
	}
	return m
}()

// IsBase58 reports whether s consists only of base58 symbols.
func IsBase58(s string) bool {
	return s != "" && allIn(s, cBase58)
}

// Base58Decode decodes a base58 string into bytes. It returns ok=false for
// strings containing symbols outside the alphabet.
func Base58Decode(s string) ([]byte, bool) {
	if s == "" {
		return nil, false
	}
	result := big.NewInt(0)
	radix := big.NewInt(58)
	for i := 0; i < len(s); i++ {
		v, ok := base58Index[s[i]]
		if !ok {
			return nil, false
		}
		result.Mul(result, radix)
		result.Add(result, big.NewInt(int64(v)))
	}
	decoded := result.Bytes()
	// Leading '1's encode leading zero bytes.
	for i := 0; i < len(s) && s[i] == '1'; i++ {
		decoded = append([]byte{0}, decoded...)
	}
	return decoded, true
}

// Base58Encode encodes bytes as base58.
func Base58Encode(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	n := new(big.Int).SetBytes(data)
	radix := big.NewInt(58)
	mod := new(big.Int)
	var out []byte
	for n.Sign() > 0 {
		n.DivMod(n, radix, mod)
		out = append(out, base58Alphabet[mod.Int64()])
	}
	for _, b := range data {
		if b != 0 {
			break
		}
		out = append(out, '1')
	}
	// Reverse.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

// ValidBase58Check reports whether s is a valid Base58Check string: the last
// 4 bytes of the decoded payload must equal the first 4 bytes of the double
// SHA-256 of the rest. Bitcoin legacy addresses use this scheme.
func ValidBase58Check(s string) bool {
	decoded, ok := Base58Decode(s)
	if !ok || len(decoded) < 5 {
		return false
	}
	payload := decoded[:len(decoded)-4]
	checksum := decoded[len(decoded)-4:]
	h1 := sha256.Sum256(payload)
	h2 := sha256.Sum256(h1[:])
	for i := 0; i < 4; i++ {
		if checksum[i] != h2[i] {
			return false
		}
	}
	return true
}

// EncodeBase58Check encodes payload with a 4-byte double-SHA-256 checksum
// appended, producing a string that ValidBase58Check accepts. The ecosystem
// simulator uses it to fabricate syntactically valid Bitcoin wallets.
func EncodeBase58Check(payload []byte) string {
	h1 := sha256.Sum256(payload)
	h2 := sha256.Sum256(h1[:])
	return Base58Encode(append(append([]byte{}, payload...), h2[:4]...))
}

// cryptoNoteSpec describes a CryptoNote-family address format.
type cryptoNoteSpec struct {
	currency model.Currency
	prefixes []string // address prefixes (first characters of the base58 form)
	length   []int    // accepted address lengths
}

// CryptoNote address shapes. Standard Monero addresses are 95 characters and
// begin with '4' (or '8' for subaddresses); integrated addresses are 106
// characters. Other CryptoNote coins use distinctive multi-character prefixes,
// which makes classification by prefix+length reliable in practice.
var cryptoNoteSpecs = []cryptoNoteSpec{
	{currency: model.CurrencyElectroneum, prefixes: []string{"etn"}, length: []int{98}},
	{currency: model.CurrencySumokoin, prefixes: []string{"Sumo"}, length: []int{99}},
	{currency: model.CurrencyIntense, prefixes: []string{"iz"}, length: []int{97}},
	{currency: model.CurrencyTurtlecoin, prefixes: []string{"TRTL"}, length: []int{99}},
	{currency: model.CurrencyAeon, prefixes: []string{"Wm", "WW"}, length: []int{97}},
	{currency: model.CurrencyBytecoin, prefixes: []string{"2"}, length: []int{95}},
	{currency: model.CurrencyMonero, prefixes: []string{"4", "8"}, length: []int{95, 106}},
}

// Classify determines the currency of a mining identifier. It returns
// CurrencyEmail for e-mail identifiers and CurrencyUnknown when the identifier
// does not match any known wallet format.
func Classify(id string) model.Currency {
	id = strings.TrimSpace(id)
	if id == "" {
		return model.CurrencyUnknown
	}
	if isEmail(id) {
		return model.CurrencyEmail
	}
	if len(id) == 42 && strings.HasPrefix(id, "0x") && allIn(id[2:], cHex) {
		return model.CurrencyEthereum
	}
	// Bitcoin bech32: bc1 + 11-71 symbols of its lower-case alphabet.
	if len(id) >= 14 && len(id) <= 74 && strings.HasPrefix(id, "bc1") && allIn(id[3:], cBech32) {
		return model.CurrencyBitcoin
	}
	// Zcash transparent addresses: t1/t3 + 33 base58 chars.
	if len(id) == 35 && (strings.HasPrefix(id, "t1") || strings.HasPrefix(id, "t3")) && IsBase58(id[1:]) {
		return model.CurrencyZcash
	}
	// CryptoNote family (checked before Bitcoin: their lengths differ).
	for _, spec := range cryptoNoteSpecs {
		for _, p := range spec.prefixes {
			if !strings.HasPrefix(id, p) {
				continue
			}
			for _, l := range spec.length {
				if len(id) == l && IsBase58(id) {
					return spec.currency
				}
			}
		}
	}
	// Bitcoin legacy P2PKH/P2SH: 26-35 base58 chars starting with 1 or 3 and
	// a valid checksum.
	if len(id) >= 26 && len(id) <= 35 && (id[0] == '1' || id[0] == '3') && ValidBase58Check(id) {
		return model.CurrencyBitcoin
	}
	return model.CurrencyUnknown
}

// IsWallet reports whether the identifier is a recognized wallet address (as
// opposed to an e-mail or an unknown identifier).
func IsWallet(id string) bool {
	switch Classify(id) {
	case model.CurrencyUnknown, model.CurrencyEmail:
		return false
	default:
		return true
	}
}

// Candidate is one identifier found in free text.
type Candidate struct {
	ID       string
	Currency model.Currency
}

// Generator fabricates syntactically valid wallet addresses deterministically
// from a seed source. The ecosystem simulator uses it so that the extraction
// and classification pipeline exercises realistic address shapes.
type Generator struct {
	rng interface{ Intn(int) int }
}

// NewGenerator wraps any Intn-capable randomness source (e.g. *math/rand.Rand).
func NewGenerator(rng interface{ Intn(int) int }) *Generator {
	return &Generator{rng: rng}
}

func (g *Generator) base58String(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = base58Alphabet[g.rng.Intn(len(base58Alphabet))]
	}
	return string(b)
}

// Monero returns a 95-character standard Monero address starting with '4'.
func (g *Generator) Monero() string { return "4" + g.base58String(94) }

// MoneroSub returns a 95-character Monero subaddress starting with '8'.
func (g *Generator) MoneroSub() string { return "8" + g.base58String(94) }

// Electroneum returns a 98-character Electroneum address.
func (g *Generator) Electroneum() string { return "etn" + g.base58String(95) }

// Aeon returns a 97-character Aeon address.
func (g *Generator) Aeon() string { return "Wm" + g.base58String(95) }

// Sumokoin returns a 99-character Sumokoin address.
func (g *Generator) Sumokoin() string { return "Sumo" + g.base58String(95) }

// Intense returns a 97-character Intense Coin address.
func (g *Generator) Intense() string { return "iz" + g.base58String(95) }

// Turtlecoin returns a 99-character Turtlecoin address.
func (g *Generator) Turtlecoin() string { return "TRTL" + g.base58String(95) }

// Bytecoin returns a 95-character Bytecoin address.
func (g *Generator) Bytecoin() string { return "2" + g.base58String(94) }

// Zcash returns a 35-character transparent Zcash address.
func (g *Generator) Zcash() string { return "t1" + g.base58String(33) }

// Ethereum returns a 0x-prefixed Ethereum address.
func (g *Generator) Ethereum() string {
	const hexDigits = "0123456789abcdef"
	b := make([]byte, 40)
	for i := range b {
		b[i] = hexDigits[g.rng.Intn(len(hexDigits))]
	}
	return "0x" + string(b)
}

// Bitcoin returns a checksum-valid P2PKH Bitcoin address.
func (g *Generator) Bitcoin() string {
	payload := make([]byte, 21)
	payload[0] = 0x00 // P2PKH version byte
	for i := 1; i < len(payload); i++ {
		payload[i] = byte(g.rng.Intn(256))
	}
	return EncodeBase58Check(payload)
}

// Email returns a plausible e-mail identifier (for opaque pools like minergate).
func (g *Generator) Email() string {
	users := []string{"miner", "worker", "crypto", "profit", "botmaster", "xmr", "silent"}
	domains := []string{"gmail.com", "mail.ru", "protonmail.com", "yandex.ru", "outlook.com"}
	return users[g.rng.Intn(len(users))] + g.base58String(6) + "@" + domains[g.rng.Intn(len(domains))]
}

// ForCurrency returns a fresh address for the given currency, or an opaque
// identifier for unknown currencies.
func (g *Generator) ForCurrency(c model.Currency) string {
	switch c {
	case model.CurrencyMonero:
		return g.Monero()
	case model.CurrencyBitcoin:
		return g.Bitcoin()
	case model.CurrencyEthereum:
		return g.Ethereum()
	case model.CurrencyZcash:
		return g.Zcash()
	case model.CurrencyElectroneum:
		return g.Electroneum()
	case model.CurrencyAeon:
		return g.Aeon()
	case model.CurrencySumokoin:
		return g.Sumokoin()
	case model.CurrencyIntense:
		return g.Intense()
	case model.CurrencyTurtlecoin:
		return g.Turtlecoin()
	case model.CurrencyBytecoin:
		return g.Bytecoin()
	case model.CurrencyEmail:
		return g.Email()
	default:
		return "user-" + g.base58String(8)
	}
}
