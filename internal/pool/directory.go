package pool

import (
	"slices"
	"strings"

	"cryptomining/internal/model"
	"cryptomining/internal/pow"
)

// Directory is the set of known mining pools the measurement queries, and
// the domain-to-pool mapping the alias detector needs.
//
// Membership is fixed when the directory is built (NewDirectory,
// NewDirectoryOf, Fork), so the directory needs no lock and computes its
// name order once. Ledgers still change: each pool guards its own with its
// mutex, and live interventions and probe crawls share them safely.
type Directory struct {
	pools       []*Pool // sorted by name
	transparent []*Pool // the transparent subset, same order
	byName      map[string]*Pool
}

// KnownPoolSpec describes one well-known pool.
type KnownPoolSpec struct {
	Name        string
	Domains     []string
	Transparent bool
	// HistoricHashrate marks pools that expose the per-wallet historical
	// hashrate series (only minexmr in the paper).
	HistoricHashrate bool
}

// KnownMoneroPools lists the Monero pools studied in Table VII plus the opaque
// minergate pool. The set mirrors the paper's ranking universe.
func KnownMoneroPools() []KnownPoolSpec {
	return []KnownPoolSpec{
		{Name: "crypto-pool", Domains: []string{"crypto-pool.fr", "mine.crypto-pool.fr", "xmr.crypto-pool.fr"}, Transparent: true},
		{Name: "dwarfpool", Domains: []string{"dwarfpool.com", "xmr-eu.dwarfpool.com", "xmr-usa.dwarfpool.com"}, Transparent: true},
		{Name: "minexmr", Domains: []string{"minexmr.com", "pool.minexmr.com"}, Transparent: true, HistoricHashrate: true},
		{Name: "poolto", Domains: []string{"poolto.be", "xmr.poolto.be"}, Transparent: true},
		{Name: "prohash", Domains: []string{"prohash.net", "xmr.prohash.net"}, Transparent: true},
		{Name: "nanopool", Domains: []string{"nanopool.org", "xmr-eu1.nanopool.org"}, Transparent: true},
		{Name: "monerohash", Domains: []string{"monerohash.com"}, Transparent: true},
		{Name: "ppxxmr", Domains: []string{"ppxxmr.com", "pool.ppxxmr.com"}, Transparent: true},
		{Name: "supportxmr", Domains: []string{"supportxmr.com", "pool.supportxmr.com"}, Transparent: true},
		{Name: "moneropool", Domains: []string{"moneropool.com"}, Transparent: true},
		{Name: "xmrpool", Domains: []string{"xmrpool.eu"}, Transparent: true},
		{Name: "hashvault", Domains: []string{"hashvault.pro", "pool.hashvault.pro"}, Transparent: true},
		{Name: "minemonero", Domains: []string{"minemonero.pro"}, Transparent: true},
		{Name: "monerominers", Domains: []string{"monerominers.net"}, Transparent: true},
		{Name: "viaxmr", Domains: []string{"viaxmr.com"}, Transparent: true},
		{Name: "usxmrpool", Domains: []string{"usxmrpool.com"}, Transparent: true},
		{Name: "moneroocean", Domains: []string{"moneroocean.stream", "gulf.moneroocean.stream"}, Transparent: true},
		{Name: "minergate", Domains: []string{"minergate.com", "pool.minergate.com"}, Transparent: false},
	}
}

// NewDirectory instantiates all known Monero pools backed by a shared network
// model. A nil network uses the default Monero model.
func NewDirectory(network *pow.Network) *Directory {
	if network == nil {
		network = pow.NewMoneroNetwork()
	}
	var pools []*Pool
	for _, spec := range KnownMoneroPools() {
		policy := DefaultPolicy()
		policy.Transparent = spec.Transparent
		policy.ProvidesHistoricHashrate = spec.HistoricHashrate
		if !spec.Transparent {
			policy.ProvidesPaymentHistory = false
		}
		pools = append(pools, New(spec.Name, spec.Domains, model.CurrencyMonero, policy, network))
	}
	return NewDirectoryOf(pools...)
}

// NewDirectoryOf builds a directory of exactly the given pools, whose names
// must be distinct.
func NewDirectoryOf(pools ...*Pool) *Directory {
	d := &Directory{pools: slices.Clone(pools), byName: make(map[string]*Pool, len(pools))}
	slices.SortFunc(d.pools, func(a, b *Pool) int { return strings.Compare(a.Name, b.Name) })
	for _, p := range d.pools {
		d.byName[p.Name] = p
		if p.Policy.Transparent {
			d.transparent = append(d.transparent, p)
		}
	}
	return d
}

// Get returns the pool with the given normalized name.
func (d *Directory) Get(name string) (*Pool, bool) {
	p, ok := d.byName[name]
	return p, ok
}

// Names returns the pool names, sorted.
func (d *Directory) Names() []string {
	out := make([]string, len(d.pools))
	for i, p := range d.pools {
		out[i] = p.Name
	}
	return out
}

// Pools returns the pools sorted by name. The slice is the directory's own:
// callers must not modify it.
func (d *Directory) Pools() []*Pool { return d.pools }

// DomainMap returns the domain -> pool-name map consumed by the CNAME alias
// detector (dnssim.NewAliasDetector).
func (d *Directory) DomainMap() map[string]string {
	out := map[string]string{}
	for _, p := range d.pools {
		for _, dom := range p.Domains {
			out[dom] = p.Name
		}
	}
	return out
}

// Transparent returns only the pools that expose public wallet statistics,
// sorted by name. The slice is the directory's own: callers must not modify
// it.
func (d *Directory) Transparent() []*Pool { return d.transparent }

// HostOfEndpoint strips the :port suffix from a mining endpoint
// ("host:port" -> "host"). The one place this parsing lives, so the keep
// decision and the per-pool telemetry can never disagree on it.
func HostOfEndpoint(endpoint string) string {
	if i := strings.LastIndex(endpoint, ":"); i > 0 {
		return endpoint[:i]
	}
	return endpoint
}

// PoolForDomain returns the pool a domain belongs to (matching the domain or
// any of its parents), if any. Pools are tried in name order.
func (d *Directory) PoolForDomain(domain string) (*Pool, bool) {
	for _, p := range d.pools {
		for _, dom := range p.Domains {
			if domain == dom || hasSuffixDot(domain, dom) {
				return p, true
			}
		}
	}
	return nil, false
}

// Fork copies the directory: every pool reappears with the same name,
// domains, currency, policy and network model, but with an independent
// ledger (wallet accounts, payments, hashrate history, source IPs, bans). A
// what-if scenario mutates the fork — banning wallets, retracting earnings —
// without the live directory ever observing a write, and the live pools keep
// taking writes without the fork observing them. The ledgers are copied
// structurally, so a fork prices wallets bit-identically to its source until
// the first intervention diverges them, and re-marshals byte-equal to it.
func (d *Directory) Fork() *Directory {
	forked := make([]*Pool, len(d.pools))
	for i, p := range d.pools {
		forked[i] = p.fork()
	}
	return NewDirectoryOf(forked...)
}

func hasSuffixDot(name, suffix string) bool {
	if len(name) <= len(suffix) {
		return false
	}
	return name[len(name)-len(suffix):] == suffix && name[len(name)-len(suffix)-1] == '.'
}
