// Package dnssim simulates the DNS infrastructure the measurement pipeline
// relies on: a zone store with A and CNAME records, a resolver that follows
// CNAME chains, and a passive-DNS history service.
//
// The paper observes criminals evading pool blacklists by creating CNAME
// aliases under domains they control (e.g. xt.freebuf.info -> minexmr pool).
// The detection of these aliases performs live DNS resolutions for every
// domain extracted from the samples, follows CNAMEs to known pools, and also
// queries a passive-DNS history service because CNAMEs may have been changed
// since the sample was active (§III-E). This package reproduces that
// environment so the detection code path is exercised end-to-end.
package dnssim

import (
	"errors"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Errors returned by the resolver.
var (
	ErrNXDomain  = errors.New("dnssim: NXDOMAIN")
	ErrCNAMELoop = errors.New("dnssim: CNAME loop detected")
)

// maxChain bounds CNAME chain traversal.
const maxChain = 16

// RecordType is the DNS record type.
type RecordType string

// Supported record types.
const (
	TypeA     RecordType = "A"
	TypeCNAME RecordType = "CNAME"
)

// Record is one DNS record with a validity interval, so the passive-DNS
// history can answer "what did this name point to in June 2017?".
type Record struct {
	Name  string
	Type  RecordType
	Value string
	// From and To bound the validity period. A zero To means still active.
	From time.Time
	To   time.Time
}

// activeAt reports whether the record was active at t. A zero t means "now"
// (i.e. only currently-active records match).
func (r Record) activeAt(t time.Time) bool {
	if t.IsZero() {
		return r.To.IsZero()
	}
	if !r.From.IsZero() && t.Before(r.From) {
		return false
	}
	if !r.To.IsZero() && t.After(r.To) {
		return false
	}
	return true
}

// Zone is an in-memory authoritative store of DNS records with history.
type Zone struct {
	mu      sync.RWMutex
	records map[string][]Record // keyed by lowercase name
}

// NewZone returns an empty zone.
func NewZone() *Zone {
	return &Zone{records: make(map[string][]Record)}
}

func normalize(name string) string {
	return strings.ToLower(strings.TrimSuffix(strings.TrimSpace(name), "."))
}

// AddA adds an A record active from `from` (zero means "since forever").
func (z *Zone) AddA(name, ip string, from time.Time) {
	z.add(Record{Name: normalize(name), Type: TypeA, Value: ip, From: from})
}

// AddCNAME adds a CNAME record active from `from`.
func (z *Zone) AddCNAME(name, target string, from time.Time) {
	z.add(Record{Name: normalize(name), Type: TypeCNAME, Value: normalize(target), From: from})
}

// Retire closes the active record(s) of the given name and type at time t,
// e.g. when a criminal re-points an alias to a different pool.
func (z *Zone) Retire(name string, typ RecordType, t time.Time) {
	z.mu.Lock()
	defer z.mu.Unlock()
	name = normalize(name)
	recs := z.records[name]
	for i := range recs {
		if recs[i].Type == typ && recs[i].To.IsZero() {
			recs[i].To = t
		}
	}
	z.records[name] = recs
}

func (z *Zone) add(r Record) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.records[r.Name] = append(z.records[r.Name], r)
}

// lookup returns records of the given name/type active at t.
func (z *Zone) lookup(name string, typ RecordType, at time.Time) []Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []Record
	for _, r := range z.records[normalize(name)] {
		if r.Type == typ && r.activeAt(at) {
			out = append(out, r)
		}
	}
	return out
}

// History returns every record ever registered for a name, sorted by From.
// This is the passive-DNS view (the paper queries a history-resolution
// service for exactly this purpose).
func (z *Zone) History(name string) []Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := append([]Record(nil), z.records[normalize(name)]...)
	sort.Slice(out, func(i, j int) bool { return out[i].From.Before(out[j].From) })
	return out
}

// Names returns every name in the zone, sorted. Only tests list a zone.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]string, 0, len(z.records))
	for n := range z.records {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Resolution is the outcome of resolving a name: the CNAME chain traversed
// (possibly empty) and the final A records.
type Resolution struct {
	Query string
	Chain []string // intermediate CNAME targets, in order
	IPs   []string
}

// Resolver resolves names against a Zone.
type Resolver struct {
	zone *Zone
}

// NewResolver returns a resolver over the given zone.
func NewResolver(zone *Zone) *Resolver {
	return &Resolver{zone: zone}
}

// Resolve resolves a name at the present time.
func (r *Resolver) Resolve(name string) (Resolution, error) {
	return r.ResolveAt(name, time.Time{})
}

// ResolveAt resolves a name as the zone stood at time t (zero = now). CNAME
// chains are followed up to maxChain links.
func (r *Resolver) ResolveAt(name string, t time.Time) (Resolution, error) {
	res := Resolution{Query: normalize(name)}
	cur := res.Query
	seen := map[string]bool{cur: true}
	for i := 0; i < maxChain; i++ {
		if cnames := r.zone.lookup(cur, TypeCNAME, t); len(cnames) > 0 {
			next := cnames[0].Value
			if seen[next] {
				return res, ErrCNAMELoop
			}
			seen[next] = true
			res.Chain = append(res.Chain, next)
			cur = next
			continue
		}
		arecs := r.zone.lookup(cur, TypeA, t)
		if len(arecs) == 0 {
			if len(res.Chain) > 0 {
				// CNAME to a name with no A record still reveals the target.
				return res, nil
			}
			return res, ErrNXDomain
		}
		for _, a := range arecs {
			res.IPs = append(res.IPs, a.Value)
		}
		return res, nil
	}
	return res, ErrCNAMELoop
}

// AliasFinding describes one domain found to be a CNAME alias of a known
// mining pool.
type AliasFinding struct {
	Alias string
	// Pool is the normalized pool name the alias points (or pointed) to.
	Pool string
	// PoolDomain is the concrete pool domain matched.
	PoolDomain string
	// Historical is true when the link was only found through passive DNS
	// (the record is no longer active).
	Historical bool
}

// DomainIndex maps known domains to a value, such as the pool each pool
// domain belongs to, and finds the one a host is under.
type DomainIndex map[string]string

// IndexDomains keys each domain's value by key(domain). Where two domains
// share a key, the lexically smaller domain's value is kept.
func IndexDomains(domains map[string]string, key func(string) string) DomainIndex {
	ix := make(DomainIndex, len(domains))
	for _, d := range slices.Sorted(maps.Keys(domains)) {
		if _, dup := ix[key(d)]; !dup {
			ix[key(d)] = domains[d]
		}
	}
	return ix
}

// Match returns the longest indexed domain that host equals or is a
// subdomain of, and its value; host must be in the index's key form. It tries
// host and then the suffix after each of its dots, longest first: one map
// probe per label whatever the number of domains, and where indexed domains
// nest (pool.example and eu.pool.example) the deeper one, whatever the map's
// order.
func (ix DomainIndex) Match(host string) (domain, value string, ok bool) {
	for {
		if v, ok := ix[host]; ok {
			return host, v, true
		}
		dot := strings.IndexByte(host, '.')
		if dot < 0 {
			return "", "", false
		}
		host = host[dot+1:]
	}
}

// AliasDetector unmasks domain aliases of known mining pools, combining live
// resolution and passive-DNS history exactly like the pipeline does.
type AliasDetector struct {
	resolver *Resolver
	zone     *Zone
	// poolByDomain maps a normalized pool domain (e.g. "minexmr.com") to the
	// normalized pool name (e.g. "minexmr").
	poolByDomain DomainIndex
}

// NewAliasDetector builds a detector for the given zone and pool-domain map.
func NewAliasDetector(zone *Zone, poolByDomain map[string]string) *AliasDetector {
	return &AliasDetector{resolver: NewResolver(zone), zone: zone, poolByDomain: IndexDomains(poolByDomain, normalize)}
}

// matchPool returns the pool name when name is (a subdomain of) a known pool
// domain, and the longest such domain.
func (d *AliasDetector) matchPool(name string) (pool, domain string, ok bool) {
	domain, pool, ok = d.poolByDomain.Match(normalize(name))
	return pool, domain, ok
}

// Detect checks whether the domain is a CNAME alias for a known pool, first
// via live resolution and then via passive-DNS history. Domains that are
// themselves pool domains are not aliases.
func (d *AliasDetector) Detect(domain string) (AliasFinding, bool) {
	domain = normalize(domain)
	if _, _, ok := d.matchPool(domain); ok {
		return AliasFinding{}, false
	}
	// Live resolution.
	if res, err := d.resolver.Resolve(domain); err == nil || errors.Is(err, ErrNXDomain) {
		for _, hop := range res.Chain {
			if pool, pd, ok := d.matchPool(hop); ok {
				return AliasFinding{Alias: domain, Pool: pool, PoolDomain: pd}, true
			}
		}
	}
	// Passive DNS history: any historical CNAME record pointing at a pool.
	for _, rec := range d.zone.History(domain) {
		if rec.Type != TypeCNAME {
			continue
		}
		if pool, pd, ok := d.matchPool(rec.Value); ok {
			return AliasFinding{Alias: domain, Pool: pool, PoolDomain: pd, Historical: !rec.To.IsZero()}, true
		}
	}
	return AliasFinding{}, false
}

// DetectAll runs Detect over a list of domains and returns every finding,
// deduplicated by alias.
func (d *AliasDetector) DetectAll(domains []string) []AliasFinding {
	seen := map[string]bool{}
	var out []AliasFinding
	for _, dom := range domains {
		dom = normalize(dom)
		if dom == "" || seen[dom] {
			continue
		}
		seen[dom] = true
		if f, ok := d.Detect(dom); ok {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Alias < out[j].Alias })
	return out
}
