// Package campaign implements the aggregation stage of the pipeline: it
// groups per-sample extraction records into campaigns using the grouping
// features of §III-E of the paper, and enriches the resulting campaigns with
// third-party-infrastructure attribution (§III-E "Enrichment").
//
// Grouping features (each becomes a typed edge in the campaign graph):
//
//   - same identifier: two samples accumulating earnings in the same wallet
//     (donation wallets are whitelisted and excluded);
//   - ancestors: a dropper and the samples it dropped;
//   - hosting servers: samples downloaded from exactly the same URL, or from
//     the same raw-IP host;
//   - known mining campaigns: samples matching IoCs of the same publicly
//     reported operation;
//   - domain aliases: samples reaching a pool through the same CNAME alias;
//   - mining proxies: samples mining through the same proxy endpoint.
//
// Each connected component of the resulting graph is one campaign. PPI
// botnets and stock mining tools are deliberately NOT grouping features — they
// are third-party infrastructure shared by unrelated actors — and are only
// attached to campaigns as enrichment.
package campaign

import (
	"net/url"
	"sort"
	"strings"

	"cryptomining/internal/dnssim"
	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/graph"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
)

// Features toggles individual grouping features, used by the ablation
// benchmarks; the zero value disables everything, DefaultFeatures enables the
// full set the paper uses.
type Features struct {
	SameIdentifier bool
	Ancestors      bool
	Hosting        bool
	KnownCampaigns bool
	CNAMEAliases   bool
	Proxies        bool
}

// DefaultFeatures enables every grouping feature.
func DefaultFeatures() Features {
	return Features{
		SameIdentifier: true,
		Ancestors:      true,
		Hosting:        true,
		KnownCampaigns: true,
		CNAMEAliases:   true,
		Proxies:        true,
	}
}

// Config configures the aggregator.
type Config struct {
	Features Features
	// OSINT provides donation-wallet whitelisting, known-operation IoCs and
	// the stock-tool catalogue. Required.
	OSINT *osint.Store
	// AliasDetector unmasks CNAME aliases of known pools; nil disables the
	// CNAME grouping feature.
	AliasDetector *dnssim.AliasDetector
	// PoolDomains maps known pool domains to pool names; hosts that belong
	// to known pools are never treated as proxies.
	PoolDomains map[string]string
	// PublicHostingDomains are domains of public repositories and cloud
	// storage (github.com, amazonaws.com, ...). Samples hosted there are only
	// grouped when the full URL matches, never by the host alone.
	PublicHostingDomains []string
	// FuzzyThreshold is the maximum fuzzy-hash distance for stock-tool
	// attribution (default fuzzyhash.DefaultThreshold).
	FuzzyThreshold float64
	// ObfuscationRatio is the fraction of obfuscated samples above which a
	// campaign is labeled as using obfuscation (the paper uses 0.8).
	ObfuscationRatio float64
	// AVReports optionally supplies per-sample AV labels for PPI botnet
	// enrichment (hash -> labels).
	AVLabels map[string][]string
}

// DefaultPublicHostingDomains lists the public repositories and cloud-storage
// services of Table VI whose shared use must not over-aggregate campaigns.
func DefaultPublicHostingDomains() []string {
	return []string{
		"github.com", "amazonaws.com", "google.com", "googleapis.com",
		"dropbox.com", "4sync.com", "bitbucket.org", "weebly.com",
		"discordapp.com", "goo.gl", "drive.google.com", "sourceforge.net",
	}
}

// DefaultConfig returns a configuration with every feature enabled.
func DefaultConfig(store *osint.Store, detector *dnssim.AliasDetector, poolDomains map[string]string) Config {
	return Config{
		Features:             DefaultFeatures(),
		OSINT:                store,
		AliasDetector:        detector,
		PoolDomains:          poolDomains,
		PublicHostingDomains: DefaultPublicHostingDomains(),
		FuzzyThreshold:       fuzzyhash.DefaultThreshold,
		ObfuscationRatio:     0.8,
	}
}

// Aggregator builds the campaign graph.
type Aggregator struct {
	cfg Config
	// stockSignatures is the catalogue's fuzzy hashes as the store had them
	// at New (computed once per store, see osint.Store.StockSignatures).
	stockSignatures []osint.StockSignature
}

// New creates an aggregator. A nil OSINT store is replaced by an empty one.
func New(cfg Config) *Aggregator {
	if cfg.OSINT == nil {
		cfg.OSINT = osint.NewDefaultStore()
	}
	if cfg.FuzzyThreshold <= 0 {
		cfg.FuzzyThreshold = fuzzyhash.DefaultThreshold
	}
	if cfg.ObfuscationRatio <= 0 {
		cfg.ObfuscationRatio = 0.8
	}
	return &Aggregator{cfg: cfg, stockSignatures: cfg.OSINT.StockSignatures()}
}

// Input is one record plus optional raw content (needed only for fuzzy-hash
// stock-tool attribution of dropped/ancillary binaries).
type Input struct {
	Record model.Record
	// Content is read by the batch Aggregate. The IncrementalAggregator
	// resolves the attribution once, in Add, and keeps StockTool instead: the
	// inputs it holds and exports carry no body.
	Content []byte
	// Signature, when set, is the fuzzy hash of the body, computed ahead by
	// IncrementalAggregator.Signature: a caller that has it passes it instead
	// of Content, and the attribution compares it instead of hashing.
	Signature *fuzzyhash.Signature
	// StockTool is the resolved stock-tool attribution ("" for none) on the
	// inputs an IncrementalAggregator holds; callers leave it empty.
	StockTool string
	// resolved is set on the inputs an IncrementalAggregator holds (see
	// Aggregator.enrich); batch inputs are resolved as they are read.
	resolved *enrichment
	// GroundTruthID optionally carries the simulator's campaign ID for
	// aggregation-quality validation; it plays no role in the aggregation.
	GroundTruthID int
}

// Result is the aggregation outcome.
type Result struct {
	Campaigns []*model.Campaign
	Graph     *graph.Graph
	// DonationWalletsSkipped counts identifiers dropped by the whitelist.
	DonationWalletsSkipped int
	// ByWallet maps each wallet to the campaign that contains it.
	ByWallet map[string]*model.Campaign
	// BySample maps each sample hash to the campaign that contains it.
	BySample map[string]*model.Campaign
}

// Link is one grouping-feature edge from a sample node to an infrastructure
// node, as derived from a single record.
type Link struct {
	Node graph.NodeID
	Kind model.EdgeKind
}

// DeriveLinks computes the sample node and grouping-feature edges one record
// contributes to the campaign graph. donationSkipped reports that the record's
// identifier was dropped by the donation-wallet whitelist. Both the batch
// BuildGraph and the streaming IncrementalAggregator are built on top of it.
func (a *Aggregator) DeriveLinks(rec *model.Record) (sampleNode graph.NodeID, links []Link, donationSkipped bool) {
	kind := model.NodeSample
	if rec.Type == model.TypeAncillary {
		kind = model.NodeAncillary
	}
	sampleNode = graph.NodeID{Kind: kind, Value: rec.SHA256}

	// Same identifier.
	if a.cfg.Features.SameIdentifier && rec.HasIdentifier() {
		if _, isDonation := a.cfg.OSINT.IsDonationWallet(rec.User); isDonation {
			donationSkipped = true
		} else {
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeWallet, Value: rec.User}, Kind: model.EdgeSameIdentifier})
		}
	}

	// Ancestors: edge to each parent (parents may be miners or
	// ancillaries; the node kind of the parent does not matter for
	// connectivity, use Ancillary when the parent is not a known miner).
	if a.cfg.Features.Ancestors {
		for _, parent := range rec.Parents {
			if parent == "" || parent == rec.SHA256 {
				continue
			}
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeAncillary, Value: parent}, Kind: model.EdgeAncestor})
		}
		for _, child := range rec.Dropped {
			if child == "" || child == rec.SHA256 {
				continue
			}
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeAncillary, Value: child}, Kind: model.EdgeAncestor})
		}
	}

	// Hosting servers.
	if a.cfg.Features.Hosting {
		hostingKey := a.hostingKeyFunc()
		for _, itw := range rec.ITWURLs {
			if key, ok := hostingKey(itw); ok {
				links = append(links, Link{Node: graph.NodeID{Kind: model.NodeHost, Value: key}, Kind: model.EdgeHosting})
			}
		}
	}

	// Known mining campaigns (OSINT IoCs).
	if a.cfg.Features.KnownCampaigns {
		values := []string{rec.SHA256, rec.User, rec.DstIP}
		values = append(values, rec.DNSRR...)
		values = append(values, rec.ITWURLs...)
		for _, op := range a.cfg.OSINT.Operations(values...) {
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeOperation, Value: op}, Kind: model.EdgeKnownCampaign})
		}
	}

	// Domain aliases (CNAMEs) of known pools.
	if a.cfg.Features.CNAMEAliases && a.cfg.AliasDetector != nil {
		for _, f := range a.cfg.AliasDetector.DetectAll(a.domainsOf(rec)) {
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeDomain, Value: f.Alias}, Kind: model.EdgeCNAMEAlias})
		}
	}

	// Mining proxies: the pool endpoint is neither a known pool domain
	// nor a CNAME alias of one, yet the wallet shows activity at a known
	// pool (approximated here as: endpoint host not matching any known
	// pool or alias).
	if a.cfg.Features.Proxies {
		if proxyEndpoint, ok := a.proxyEndpoint(rec); ok {
			links = append(links, Link{Node: graph.NodeID{Kind: model.NodeProxy, Value: proxyEndpoint}, Kind: model.EdgeProxy})
		}
	}
	return sampleNode, links, donationSkipped
}

// BuildGraph constructs the aggregation graph from the inputs without
// extracting campaigns; only the Aggregate test oracle calls it.
func (a *Aggregator) BuildGraph(inputs []Input) (*graph.Graph, int) {
	g := graph.New()
	skippedDonations := 0
	for i := range inputs {
		rec := &inputs[i].Record
		if rec.SHA256 == "" {
			continue
		}
		sampleNode, links, donationSkipped := a.DeriveLinks(rec)
		g.AddNode(sampleNode)
		if donationSkipped {
			skippedDonations++
		}
		for _, l := range links {
			g.AddEdge(sampleNode, l.Node, l.Kind)
		}
	}
	return g, skippedDonations
}

// domainsOf returns the candidate domains (pool host + DNS resolutions) of a
// record.
func (a *Aggregator) domainsOf(rec *model.Record) []string {
	var out []string
	if host := hostOf(rec.URLPool); host != "" && !isIPLiteral(host) {
		out = append(out, host)
	}
	out = append(out, rec.DNSRR...)
	return out
}

// proxyEndpoint decides whether the record mines through a proxy and returns
// the proxy endpoint.
func (a *Aggregator) proxyEndpoint(rec *model.Record) (string, bool) {
	if rec.URLPool == "" || rec.Type != model.TypeMiner {
		return "", false
	}
	host := hostOf(rec.URLPool)
	if host == "" {
		return "", false
	}
	// Known pool domain -> not a proxy.
	if a.matchesPoolDomain(host) {
		return "", false
	}
	// CNAME alias of a known pool -> not a proxy (it is an alias).
	if a.cfg.AliasDetector != nil {
		if _, isAlias := a.cfg.AliasDetector.Detect(host); isAlias {
			return "", false
		}
	}
	return rec.URLPool, true
}

func (a *Aggregator) matchesPoolDomain(host string) bool {
	host = strings.ToLower(host)
	for dom := range a.cfg.PoolDomains {
		dom = strings.ToLower(dom)
		if host == dom || strings.HasSuffix(host, "."+dom) {
			return true
		}
	}
	return false
}

// hostingKeyFunc returns the function that maps an in-the-wild URL to a
// hosting-server grouping key, or ok=false when the URL must not be used for
// grouping (public repositories are only grouped by full URL).
func (a *Aggregator) hostingKeyFunc() func(string) (string, bool) {
	publicSuffixes := a.cfg.PublicHostingDomains
	return func(raw string) (string, bool) {
		u, err := url.Parse(raw)
		if err != nil || u.Host == "" {
			return "", false
		}
		host := strings.ToLower(u.Hostname())
		isPublic := false
		for _, pub := range publicSuffixes {
			if host == pub || strings.HasSuffix(host, "."+pub) {
				isPublic = true
				break
			}
		}
		if isIPLiteral(host) {
			// Raw-IP hosting: group by the IP alone — a rented box serving
			// many payloads is one infrastructure.
			return "ip:" + host, true
		}
		if isPublic {
			// Public repositories: group only by the exact URL (including
			// query parameters), per §III-E.
			return "url:" + strings.ToLower(raw), true
		}
		// Other domains: group by the exact URL as well (conservative, the
		// paper aggregates by full in-the-wild URL to avoid over-grouping).
		return "url:" + strings.ToLower(raw), true
	}
}

func hostOf(endpoint string) string {
	if endpoint == "" {
		return ""
	}
	host := endpoint
	if i := strings.LastIndex(endpoint, ":"); i > 0 {
		host = endpoint[:i]
	}
	return strings.ToLower(host)
}

func isIPLiteral(host string) bool {
	if host == "" {
		return false
	}
	for _, c := range host {
		if (c < '0' || c > '9') && c != '.' {
			return false
		}
	}
	return true
}

// Aggregate groups the inputs into campaigns and enriches them. It is the
// batch test oracle the incremental aggregator is checked against.
func (a *Aggregator) Aggregate(inputs []Input) *Result {
	g, skipped := a.BuildGraph(inputs)
	comps := g.ConnectedComponents()

	recByHash := map[string]*Input{}
	for i := range inputs {
		recByHash[inputs[i].Record.SHA256] = &inputs[i]
	}

	res := &Result{
		Graph:                  g,
		DonationWalletsSkipped: skipped,
		ByWallet:               map[string]*model.Campaign{},
		BySample:               map[string]*model.Campaign{},
	}

	id := 0
	for _, comp := range comps {
		id++
		c := a.buildCampaign(id, comp, recByHash)
		res.Campaigns = append(res.Campaigns, c)
		for _, w := range c.Wallets {
			res.ByWallet[w] = c
		}
		for _, s := range c.Samples {
			res.BySample[s] = c
		}
		for _, s := range c.Ancillaries {
			res.BySample[s] = c
		}
	}
	sort.Slice(res.Campaigns, func(i, j int) bool { return res.Campaigns[i].ID < res.Campaigns[j].ID })
	return res
}

func (a *Aggregator) buildCampaign(id int, comp *graph.Component, recByHash map[string]*Input) *model.Campaign {
	c := &model.Campaign{ID: id}
	c.Wallets = comp.Values(model.NodeWallet)
	c.CNAMEs = comp.Values(model.NodeDomain)
	c.Proxies = comp.Values(model.NodeProxy)
	c.KnownOperations = comp.Values(model.NodeOperation)

	sampleHashes := append(comp.Values(model.NodeSample), comp.Values(model.NodeAncillary)...)
	currencySet := map[model.Currency]bool{}
	poolSet := map[string]bool{}
	hostingSet := map[string]bool{}
	ppiSet := map[string]bool{}
	stockSet := map[string]bool{}
	obfuscated, total := 0, 0
	gtSet := map[int]bool{}

	for _, h := range sampleHashes {
		in, ok := recByHash[h]
		if !ok {
			// Node known only as somebody's parent/dropped hash: count it as
			// an ancillary with no record.
			c.Ancillaries = append(c.Ancillaries, h)
			continue
		}
		rec := &in.Record
		if rec.Type == model.TypeMiner {
			c.Samples = append(c.Samples, h)
		} else {
			c.Ancillaries = append(c.Ancillaries, h)
		}
		total++
		if rec.Obfuscated {
			obfuscated++
		}
		if rec.Currency != model.CurrencyUnknown && rec.Currency != "" {
			currencySet[rec.Currency] = true
		}
		en := in.resolved
		if en == nil {
			v := a.enrich(in)
			en = &v
		}
		if en.pool != "" {
			poolSet[en.pool] = true
		}
		for _, itw := range rec.ITWURLs {
			if u, err := url.Parse(itw); err == nil && u.Hostname() != "" {
				hostingSet[strings.ToLower(u.Hostname())] = true
			}
		}
		if !rec.FirstSeen.IsZero() {
			if c.FirstSeen.IsZero() || rec.FirstSeen.Before(c.FirstSeen) {
				c.FirstSeen = rec.FirstSeen
			}
			if rec.FirstSeen.After(c.LastSeen) {
				c.LastSeen = rec.FirstSeen
			}
		}
		if en.ppiBotnet != "" {
			ppiSet[en.ppiBotnet] = true
		}
		if en.stockTool != "" {
			stockSet[en.stockTool] = true
		}
		if in.GroundTruthID > 0 {
			gtSet[in.GroundTruthID] = true
		}
	}

	c.Samples = model.SortStrings(c.Samples)
	c.Ancillaries = model.SortStrings(c.Ancillaries)
	for cur := range currencySet {
		c.Currencies = append(c.Currencies, cur)
	}
	sort.Slice(c.Currencies, func(i, j int) bool { return c.Currencies[i] < c.Currencies[j] })
	for p := range poolSet {
		c.Pools = append(c.Pools, p)
	}
	sort.Strings(c.Pools)
	for h := range hostingSet {
		c.HostingDomains = append(c.HostingDomains, h)
	}
	sort.Strings(c.HostingDomains)
	for p := range ppiSet {
		c.PPIBotnets = append(c.PPIBotnets, p)
	}
	sort.Strings(c.PPIBotnets)
	for s := range stockSet {
		c.StockTools = append(c.StockTools, s)
	}
	sort.Strings(c.StockTools)
	for gt := range gtSet {
		c.GroundTruthIDs = append(c.GroundTruthIDs, gt)
	}
	sort.Ints(c.GroundTruthIDs)
	if total > 0 {
		c.UsesObfuscation = float64(obfuscated)/float64(total) >= a.cfg.ObfuscationRatio
	}
	return c
}

// poolNameOf maps a record's mining endpoint to a normalized pool name: the
// pool a known domain belongs to, the pool behind a CNAME alias, or "" when
// the endpoint is a proxy/private pool.
func (a *Aggregator) poolNameOf(rec *model.Record) string {
	host := hostOf(rec.URLPool)
	if host == "" {
		return ""
	}
	for dom, name := range a.cfg.PoolDomains {
		dom = strings.ToLower(dom)
		if host == dom || strings.HasSuffix(host, "."+dom) {
			return name
		}
	}
	if a.cfg.AliasDetector != nil {
		if f, ok := a.cfg.AliasDetector.Detect(host); ok {
			return f.Pool
		}
	}
	return ""
}

// enrichment is what a campaign takes from one member on its own, as opposed
// to from the component: the pool it mines at and the third-party
// infrastructure attributed to it.
type enrichment struct {
	pool, ppiBotnet, stockTool string
}

// enrich resolves one input's enrichment. It is a pure function of the input,
// the AV labels recorded for it and the configuration as loaded at New, so
// the IncrementalAggregator computes it once per input, in Add, instead of
// once per member each time a component is rebuilt — which made a component
// that grew to k members cost O(k²) lookups and, for the stock tool, O(k²)
// fuzzy hashes of bodies that had to be kept for the purpose.
func (a *Aggregator) enrich(in *Input) enrichment {
	rec := &in.Record
	en := enrichment{pool: a.poolNameOf(rec), ppiBotnet: rec.PPIBotnet, stockTool: in.StockTool}
	// PPI botnets from the record field or OSINT label matching.
	if en.ppiBotnet == "" {
		if labels, ok := a.cfg.AVLabels[rec.SHA256]; ok {
			en.ppiBotnet, _ = a.cfg.OSINT.PPIBotnetForLabels(labels)
		}
	}
	// Stock mining tools by exact hash or fuzzy hash.
	if en.stockTool == "" {
		en.stockTool, _ = a.stockToolFor(rec, in.Signature, in.Content)
	}
	return en
}

// stockToolFor attributes a record to a stock mining tool: exact hash match
// against the whitelist first, then the fuzzy hash of its body — sig, or
// content hashed here when sig is nil — against the tool catalogue with the
// configured threshold.
func (a *Aggregator) stockToolFor(rec *model.Record, sig *fuzzyhash.Signature, content []byte) (string, bool) {
	if tool, ok := a.exactStockTool(rec); ok {
		return tool, true
	}
	if sig == nil {
		sig = a.signature(rec, content)
	}
	if sig != nil {
		for _, s := range a.stockSignatures {
			if fuzzyhash.Match(*sig, s.Sig, a.cfg.FuzzyThreshold) {
				return s.Name, true
			}
		}
	}
	return "", false
}

// exactStockTool attributes a record by hash: the tool extraction named, or
// the record's own or a dropped hash in the catalogue.
func (a *Aggregator) exactStockTool(rec *model.Record) (string, bool) {
	if rec.StockTool != "" {
		return rec.StockTool, true
	}
	if tool, ok := a.cfg.OSINT.StockToolByHash(rec.SHA256); ok {
		return tool.Name, true
	}
	for _, d := range rec.Dropped {
		if tool, ok := a.cfg.OSINT.StockToolByHash(d); ok {
			return tool.Name, true
		}
	}
	return "", false
}

// signature returns the fuzzy hash stockToolFor compares a record's body by,
// or nil when it compares none: the catalogue holds no signature, the body is
// empty, or an exact hash attributes the record. It reads only the catalogue
// and the store, so it is safe for concurrent use.
func (a *Aggregator) signature(rec *model.Record, content []byte) *fuzzyhash.Signature {
	if len(content) == 0 || len(a.stockSignatures) == 0 {
		return nil
	}
	if _, exact := a.exactStockTool(rec); exact {
		return nil
	}
	sig := fuzzyhash.Hash(content)
	return &sig
}
