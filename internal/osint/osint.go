// Package osint is the open-source-intelligence store the campaign analysis
// consumes: indicators of compromise (IoCs) attributed to publicly reported
// mining operations, the Pay-Per-Install botnets used to spread miners, the
// donation-wallet whitelist, and the catalogue of stock mining tools.
//
// The paper collects IoCs for six reported operations (Photominer, Adylkuzz,
// Smominru, Xbooster, Jenkins, Rocke), links samples to PPI botnets (Virut,
// Ramnit, Nitol) for post-aggregation enrichment, and whitelists 14 donation
// wallets extracted from mining-tool repositories (§III-E). The concrete
// indicator values here are synthetic — the public reports' appendices are not
// redistributable — but the store's shape and the matching logic are exactly
// what the pipeline needs.
package osint

import (
	"sort"
	"strings"
	"sync"

	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/model"
)

// Store indexes IoCs by value for fast matching, plus the auxiliary
// whitelists and catalogues.
type Store struct {
	mu sync.RWMutex
	// byValue maps lowercase IoC value -> IoCs with that value.
	byValue map[string][]model.IoC
	// donationWallets is the whitelist of developer donation wallets.
	donationWallets map[string]string // wallet -> tool name
	// ppiFamilies maps an AV family-label stem to the PPI botnet name.
	ppiFamilies map[string]string
	// stockTools maps a sample SHA256 -> stock tool descriptor.
	stockTools map[string]StockTool
	// stockSigs caches StockSignatures, nil until computed; AddStockTool
	// clears it.
	stockSigs []StockSignature
}

// StockSignature is the fuzzy hash of one catalogued stock tool's binary.
type StockSignature struct {
	Name string
	Sig  fuzzyhash.Signature
}

// fuzzyHash is the catalogue's hash function; tests count its calls.
var fuzzyHash = fuzzyhash.Hash

// StockTool describes one version of a known mining framework.
type StockTool struct {
	Name    string // e.g. "xmrig"
	Version string // e.g. "2.14.1"
	SHA256  string
	Content []byte // binary content, for fuzzy-hash comparisons
}

// KnownOperations is the list of publicly reported mining operations whose
// IoCs the paper gathers.
var KnownOperations = []string{"Photominer", "Adylkuzz", "Smominru", "Xbooster", "Jenkins", "Rocke"}

// KnownPPIBotnets is the list of Pay-Per-Install botnets observed spreading
// miners.
var KnownPPIBotnets = []string{"Virut", "Ramnit", "Nitol"}

// StockToolNames is the catalogue of mining frameworks whose binaries are
// collected and whitelisted (13 frameworks in the paper).
var StockToolNames = []string{
	"xmrig", "xmr-stak", "claymore", "niceHash", "ccminer", "learnMiner",
	"cast-xmr", "jceMiner", "srbMiner", "yam", "cpuminer-multi", "ethminer", "lolMiner",
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byValue:         map[string][]model.IoC{},
		donationWallets: map[string]string{},
		ppiFamilies:     map[string]string{},
		stockTools:      map[string]StockTool{},
	}
}

// NewDefaultStore returns a store pre-populated with the PPI family-label
// mapping. Operation IoCs, donation wallets and stock-tool hashes are supplied
// by the ecosystem simulator (or by a real OSINT ingest on real data).
func NewDefaultStore() *Store {
	s := NewStore()
	for _, b := range KnownPPIBotnets {
		s.RegisterPPIFamily(b, b)
	}
	return s
}

// AddIoC registers one indicator.
func (s *Store) AddIoC(ioc model.IoC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(strings.TrimSpace(ioc.Value))
	if key == "" {
		return
	}
	s.byValue[key] = append(s.byValue[key], ioc)
}

// AddIoCs registers a batch of indicators.
func (s *Store) AddIoCs(iocs []model.IoC) {
	for _, i := range iocs {
		s.AddIoC(i)
	}
}

// Lookup returns the IoCs recorded for a value (hash, domain, IP, wallet or
// URL), matching case-insensitively.
func (s *Store) Lookup(value string) []model.IoC {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]model.IoC(nil), s.byValue[strings.ToLower(strings.TrimSpace(value))]...)
}

// Operations returns the distinct operations matched by any of the given
// values, sorted.
func (s *Store) Operations(values ...string) []string {
	seen := map[string]bool{}
	for _, v := range values {
		for _, ioc := range s.Lookup(v) {
			if ioc.Operation != "" {
				seen[ioc.Operation] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for op := range seen {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// IoCCount returns the number of distinct indicator values stored.
func (s *Store) IoCCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byValue)
}

// AddDonationWallet whitelists a developer donation wallet for a tool.
func (s *Store) AddDonationWallet(wallet, tool string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.donationWallets[wallet] = tool
}

// IsDonationWallet reports whether the wallet is a whitelisted donation
// wallet, and which tool it belongs to.
func (s *Store) IsDonationWallet(wallet string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tool, ok := s.donationWallets[wallet]
	return tool, ok
}

// DonationWallets returns the whitelist, sorted by wallet.
func (s *Store) DonationWallets() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.donationWallets))
	for w := range s.donationWallets {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// RegisterPPIFamily maps an AV family-label stem (e.g. "Virut") to a PPI
// botnet name, so that samples labeled with that family are enriched as
// spread through the botnet.
func (s *Store) RegisterPPIFamily(labelStem, botnet string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ppiFamilies[strings.ToLower(labelStem)] = botnet
}

// PPIBotnetForLabels inspects AV labels and returns the PPI botnet they point
// to, if any.
func (s *Store) PPIBotnetForLabels(labels []string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, l := range labels {
		ll := strings.ToLower(l)
		for stem, botnet := range s.ppiFamilies {
			if strings.Contains(ll, stem) {
				return botnet, true
			}
		}
	}
	return "", false
}

// AddStockTool registers a known stock mining tool binary. The whitelist of
// tool hashes feeds both the "is it malware?" sanity check (stock tools are
// not malware by themselves) and the campaign enrichment.
func (s *Store) AddStockTool(t StockTool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stockTools[strings.ToLower(t.SHA256)] = t
	s.stockSigs = nil
}

// StockToolByHash returns the stock tool with the given SHA256, if known.
func (s *Store) StockToolByHash(sha256Hex string) (StockTool, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.stockTools[strings.ToLower(sha256Hex)]
	return t, ok
}

// IsWhitelistedHash reports whether the hash belongs to a known stock tool.
func (s *Store) IsWhitelistedHash(sha256Hex string) bool {
	_, ok := s.StockToolByHash(sha256Hex)
	return ok
}

// StockTools returns every registered stock tool, sorted by name, then
// version, then SHA-256: a total order, since no two tools share a hash.
func (s *Store) StockTools() []StockTool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stockToolsLocked()
}

func (s *Store) stockToolsLocked() []StockTool {
	out := make([]StockTool, 0, len(s.stockTools))
	for _, t := range s.stockTools {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		return out[i].SHA256 < out[j].SHA256
	})
	return out
}

// StockSignatures returns the fuzzy hash of every registered stock tool with
// a binary, in StockTools order: the catalogue that fuzzy-hash attribution
// compares samples against (§III-E). The first call after the catalogue last
// changed computes them; every later call, from every aggregator built over
// the store, shares that result. The returned slice must not be modified.
//
// The computation holds the store's write lock, so callers racing on an
// empty cache hash the catalogue once between them. An engine makes the first
// call as it builds its aggregator, before any stage reads the store.
func (s *Store) StockSignatures() []StockSignature {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stockSigs == nil {
		tools := s.stockToolsLocked()
		s.stockSigs = make([]StockSignature, 0, len(tools))
		for _, t := range tools {
			if len(t.Content) > 0 {
				s.stockSigs = append(s.stockSigs, StockSignature{Name: t.Name, Sig: fuzzyHash(t.Content)})
			}
		}
	}
	return s.stockSigs
}

// StockToolCount returns the number of registered tool versions.
func (s *Store) StockToolCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.stockTools)
}
