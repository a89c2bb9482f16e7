package campaign

import (
	"testing"
	"time"

	"cryptomining/internal/dnssim"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
)

func testPoolDomains() map[string]string {
	return map[string]string{
		"minexmr.com":    "minexmr",
		"crypto-pool.fr": "crypto-pool",
		"dwarfpool.com":  "dwarfpool",
		"supportxmr.com": "supportxmr",
	}
}

func testDetector() *dnssim.AliasDetector {
	z := dnssim.NewZone()
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	z.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	z.AddCNAME("x.alibuf.com", "mine.crypto-pool.fr", time.Time{})
	return dnssim.NewAliasDetector(z, testPoolDomains())
}

func newAggregator(t *testing.T) *Aggregator {
	t.Helper()
	store := osint.NewDefaultStore()
	store.AddDonationWallet("4DONATION_XMRIG", "xmrig")
	store.AddIoC(model.IoC{Type: model.IoCDomain, Value: "photominer-c2.example", Operation: "Photominer"})
	store.AddStockTool(osint.StockTool{Name: "xmrig", Version: "2.14", SHA256: "stocktoolhash"})
	return New(DefaultConfig(store, testDetector(), testPoolDomains()))
}

func minerRecord(sha, wallet, pool string, firstSeen time.Time) model.Record {
	return model.Record{
		SHA256:    sha,
		User:      wallet,
		Currency:  model.CurrencyMonero,
		URLPool:   pool,
		DstPort:   4444,
		Type:      model.TypeMiner,
		FirstSeen: firstSeen,
	}
}

func TestAggregateSameWallet(t *testing.T) {
	a := newAggregator(t)
	inputs := []Input{
		{Record: minerRecord("s1", "4WALLET_A", "pool.minexmr.com:4444", model.Date(2017, 1, 1))},
		{Record: minerRecord("s2", "4WALLET_A", "mine.crypto-pool.fr:3333", model.Date(2017, 6, 1))},
		{Record: minerRecord("s3", "4WALLET_B", "pool.minexmr.com:4444", model.Date(2018, 1, 1))},
	}
	res := a.Aggregate(inputs)

	// Campaigns: {s1,s2} via wallet A, {s3} alone.
	campaignsWithSamples := 0
	for _, c := range res.Campaigns {
		if len(c.Samples) > 0 {
			campaignsWithSamples++
		}
	}
	if campaignsWithSamples != 2 {
		t.Fatalf("campaigns with samples = %d, want 2", campaignsWithSamples)
	}
	cA := res.ByWallet["4WALLET_A"]
	if cA == nil || len(cA.Samples) != 2 {
		t.Fatalf("wallet A campaign = %+v", cA)
	}
	if len(cA.Pools) != 2 || cA.Pools[0] != "crypto-pool" || cA.Pools[1] != "minexmr" {
		t.Errorf("pools = %v", cA.Pools)
	}
	if !cA.FirstSeen.Equal(model.Date(2017, 1, 1)) || !cA.LastSeen.Equal(model.Date(2017, 6, 1)) {
		t.Errorf("activity period = %v .. %v", cA.FirstSeen, cA.LastSeen)
	}
	if len(cA.Currencies) != 1 || cA.Currencies[0] != model.CurrencyMonero {
		t.Errorf("currencies = %v", cA.Currencies)
	}
	if res.BySample["s1"] != cA || res.BySample["s2"] != cA {
		t.Error("BySample index incorrect")
	}
}

func TestAggregateDonationWalletExcluded(t *testing.T) {
	a := newAggregator(t)
	// Two unrelated campaigns both "donate" to the xmrig donation wallet;
	// they must NOT be merged.
	inputs := []Input{
		{Record: minerRecord("c1s1", "4MISCREANT_1", "pool.minexmr.com:4444", model.Date(2017, 1, 1))},
		{Record: minerRecord("c1don", "4DONATION_XMRIG", "pool.minexmr.com:4444", model.Date(2017, 1, 2))},
		{Record: minerRecord("c2s1", "4MISCREANT_2", "pool.minexmr.com:4444", model.Date(2017, 2, 1))},
		{Record: minerRecord("c2don", "4DONATION_XMRIG", "pool.minexmr.com:4444", model.Date(2017, 2, 2))},
	}
	res := a.Aggregate(inputs)
	if res.DonationWalletsSkipped != 2 {
		t.Errorf("donation wallets skipped = %d, want 2", res.DonationWalletsSkipped)
	}
	c1 := res.ByWallet["4MISCREANT_1"]
	c2 := res.ByWallet["4MISCREANT_2"]
	if c1 == nil || c2 == nil {
		t.Fatal("campaigns missing")
	}
	if c1.ID == c2.ID {
		t.Error("donation wallet must not merge unrelated campaigns")
	}
	if _, ok := res.ByWallet["4DONATION_XMRIG"]; ok {
		t.Error("donation wallet should not appear as a campaign wallet")
	}
}

func TestAggregateAncestors(t *testing.T) {
	a := newAggregator(t)
	dropper := model.Record{SHA256: "dropper1", Type: model.TypeAncillary, FirstSeen: model.Date(2016, 5, 1),
		Dropped: []string{"m1", "m2"}}
	m1 := minerRecord("m1", "4WALLET_X", "pool.minexmr.com:4444", model.Date(2016, 5, 2))
	m1.Parents = []string{"dropper1"}
	m2 := minerRecord("m2", "4WALLET_Y", "xmr-eu.dwarfpool.com:8005", model.Date(2016, 5, 3))
	m2.Parents = []string{"dropper1"}

	res := a.Aggregate([]Input{{Record: dropper}, {Record: m1}, {Record: m2}})
	cX := res.ByWallet["4WALLET_X"]
	cY := res.ByWallet["4WALLET_Y"]
	if cX == nil || cY == nil || cX.ID != cY.ID {
		t.Fatal("samples dropped by the same dropper must be one campaign")
	}
	if len(cX.Samples) != 2 || len(cX.Ancillaries) != 1 {
		t.Errorf("samples/ancillaries = %v / %v", cX.Samples, cX.Ancillaries)
	}
	if len(cX.Wallets) != 2 {
		t.Errorf("wallets = %v", cX.Wallets)
	}
}

func TestAggregateHostingURL(t *testing.T) {
	a := newAggregator(t)
	// Same exact URL -> grouped; same public repo host but different URL -> not.
	r1 := minerRecord("h1", "4H_WALLET_1", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
	r1.ITWURLs = []string{"http://suicide.mouzze.had.su/gpu/amd1.exe"}
	r2 := minerRecord("h2", "4H_WALLET_2", "pool.minexmr.com:4444", model.Date(2017, 1, 2))
	r2.ITWURLs = []string{"http://suicide.mouzze.had.su/gpu/amd1.exe"}
	r3 := minerRecord("h3", "4H_WALLET_3", "pool.minexmr.com:4444", model.Date(2017, 1, 3))
	r3.ITWURLs = []string{"https://github.com/user-a/miner/releases/a.exe"}
	r4 := minerRecord("h4", "4H_WALLET_4", "pool.minexmr.com:4444", model.Date(2017, 1, 4))
	r4.ITWURLs = []string{"https://github.com/user-b/other/releases/b.exe"}

	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}, {Record: r3}, {Record: r4}})
	if res.ByWallet["4H_WALLET_1"].ID != res.ByWallet["4H_WALLET_2"].ID {
		t.Error("samples from the same exact URL must be grouped")
	}
	if res.ByWallet["4H_WALLET_3"].ID == res.ByWallet["4H_WALLET_4"].ID {
		t.Error("different GitHub URLs must not be grouped")
	}
	if res.ByWallet["4H_WALLET_1"].ID == res.ByWallet["4H_WALLET_3"].ID {
		t.Error("unrelated hosting must not be grouped")
	}
}

func TestAggregateRawIPHosting(t *testing.T) {
	a := newAggregator(t)
	// The USA-138 pattern: two clusters sharing a raw-IP malware host.
	r1 := minerRecord("ip1", "4IP_WALLET_1", "pool.minexmr.com:4444", model.Date(2018, 1, 1))
	r1.ITWURLs = []string{"http://221.9.251.236/a/miner32.exe"}
	r2 := minerRecord("ip2", "4IP_WALLET_2", "mine.crypto-pool.fr:3333", model.Date(2018, 2, 1))
	r2.ITWURLs = []string{"http://221.9.251.236/b/miner64.exe"}
	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}})
	if res.ByWallet["4IP_WALLET_1"].ID != res.ByWallet["4IP_WALLET_2"].ID {
		t.Error("samples hosted on the same raw IP must be grouped")
	}
}

func TestAggregateCNAMEAlias(t *testing.T) {
	a := newAggregator(t)
	// Freebuf pattern: different wallets, both mining via the same CNAME alias.
	r1 := minerRecord("f1", "4FREEBUF_W1", "xt.freebuf.info:4444", model.Date(2016, 6, 1))
	r1.DNSRR = []string{"xt.freebuf.info"}
	r2 := minerRecord("f2", "4FREEBUF_W2", "xt.freebuf.info:4444", model.Date(2017, 6, 1))
	r2.DNSRR = []string{"xt.freebuf.info"}
	r3 := minerRecord("f3", "4OTHER", "pool.minexmr.com:4444", model.Date(2017, 6, 1))

	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}, {Record: r3}})
	c1 := res.ByWallet["4FREEBUF_W1"]
	c2 := res.ByWallet["4FREEBUF_W2"]
	if c1 == nil || c2 == nil || c1.ID != c2.ID {
		t.Fatal("samples using the same CNAME alias must be one campaign")
	}
	if len(c1.CNAMEs) != 1 || c1.CNAMEs[0] != "xt.freebuf.info" {
		t.Errorf("CNAMEs = %v", c1.CNAMEs)
	}
	// The pool behind the alias is attributed.
	foundPool := false
	for _, p := range c1.Pools {
		if p == "minexmr" {
			foundPool = true
		}
	}
	if !foundPool {
		t.Errorf("pools = %v, want minexmr via alias", c1.Pools)
	}
	if res.ByWallet["4OTHER"].ID == c1.ID {
		t.Error("direct pool user must not join the alias campaign")
	}
}

func TestAggregateProxy(t *testing.T) {
	a := newAggregator(t)
	// Two samples mining through the same non-pool endpoint (a proxy).
	r1 := minerRecord("p1", "4P_WALLET_1", "185.10.10.10:8080", model.Date(2017, 1, 1))
	r2 := minerRecord("p2", "4P_WALLET_2", "185.10.10.10:8080", model.Date(2017, 2, 1))
	// A third sample mining directly at a known pool is not a proxy user.
	r3 := minerRecord("p3", "4P_WALLET_3", "pool.supportxmr.com:3333", model.Date(2017, 3, 1))

	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}, {Record: r3}})
	c1 := res.ByWallet["4P_WALLET_1"]
	c2 := res.ByWallet["4P_WALLET_2"]
	if c1 == nil || c2 == nil || c1.ID != c2.ID {
		t.Fatal("samples behind the same proxy must be one campaign")
	}
	if len(c1.Proxies) != 1 || c1.Proxies[0] != "185.10.10.10:8080" {
		t.Errorf("proxies = %v", c1.Proxies)
	}
	c3 := res.ByWallet["4P_WALLET_3"]
	if len(c3.Proxies) != 0 {
		t.Errorf("direct pool miner should have no proxies: %v", c3.Proxies)
	}
	// The CNAME alias endpoint must not be classified as a proxy either.
	r4 := minerRecord("p4", "4P_WALLET_4", "xt.freebuf.info:4444", model.Date(2017, 4, 1))
	res2 := a.Aggregate([]Input{{Record: r4}})
	if len(res2.ByWallet["4P_WALLET_4"].Proxies) != 0 {
		t.Error("CNAME alias endpoint must not be treated as a proxy")
	}
}

func TestAggregateKnownOperationIoC(t *testing.T) {
	a := newAggregator(t)
	r1 := minerRecord("k1", "4K_WALLET_1", "pool.minexmr.com:4444", model.Date(2016, 7, 1))
	r1.DNSRR = []string{"photominer-c2.example"}
	r2 := minerRecord("k2", "4K_WALLET_2", "mine.crypto-pool.fr:3333", model.Date(2016, 8, 1))
	r2.DNSRR = []string{"photominer-c2.example"}
	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}})
	c := res.ByWallet["4K_WALLET_1"]
	if c == nil || res.ByWallet["4K_WALLET_2"].ID != c.ID {
		t.Fatal("samples sharing an operation IoC must be one campaign")
	}
	if len(c.KnownOperations) != 1 || c.KnownOperations[0] != "Photominer" {
		t.Errorf("operations = %v", c.KnownOperations)
	}
}

func TestEnrichmentPPIDoesNotAggregate(t *testing.T) {
	a := newAggregator(t)
	// Two unrelated campaigns both spread via Virut (PPI): enriched, not merged.
	r1 := minerRecord("v1", "4V_WALLET_1", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
	r1.PPIBotnet = "Virut"
	r2 := minerRecord("v2", "4V_WALLET_2", "pool.minexmr.com:4444", model.Date(2017, 2, 1))
	r2.PPIBotnet = "Virut"
	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}})
	c1, c2 := res.ByWallet["4V_WALLET_1"], res.ByWallet["4V_WALLET_2"]
	if c1.ID == c2.ID {
		t.Error("shared PPI service must not merge campaigns")
	}
	if len(c1.PPIBotnets) != 1 || c1.PPIBotnets[0] != "Virut" {
		t.Errorf("PPI enrichment = %v", c1.PPIBotnets)
	}
}

func TestEnrichmentPPIFromAVLabels(t *testing.T) {
	store := osint.NewDefaultStore()
	cfg := DefaultConfig(store, testDetector(), testPoolDomains())
	cfg.AVLabels = map[string][]string{
		"l1": {"Win32.Virut.CE", "Trojan.CoinMiner"},
	}
	a := New(cfg)
	r := minerRecord("l1", "4L_WALLET", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
	res := a.Aggregate([]Input{{Record: r}})
	c := res.ByWallet["4L_WALLET"]
	if len(c.PPIBotnets) != 1 || c.PPIBotnets[0] != "Virut" {
		t.Errorf("PPI from AV labels = %v", c.PPIBotnets)
	}
}

func TestEnrichmentStockToolByDroppedHash(t *testing.T) {
	a := newAggregator(t)
	r := minerRecord("st1", "4ST_WALLET", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
	r.Dropped = []string{"stocktoolhash"}
	res := a.Aggregate([]Input{{Record: r}})
	c := res.ByWallet["4ST_WALLET"]
	if len(c.StockTools) != 1 || c.StockTools[0] != "xmrig" {
		t.Errorf("stock tools = %v", c.StockTools)
	}
}

func TestEnrichmentObfuscationRatio(t *testing.T) {
	a := newAggregator(t)
	// 4 of 5 samples obfuscated -> 80% -> campaign uses obfuscation.
	var inputs []Input
	for i := 0; i < 5; i++ {
		r := minerRecord(string(rune('a'+i))+"-obf", "4OBF_WALLET", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
		r.Obfuscated = i < 4
		inputs = append(inputs, Input{Record: r})
	}
	res := a.Aggregate(inputs)
	if !res.ByWallet["4OBF_WALLET"].UsesObfuscation {
		t.Error("campaign with 80% obfuscated samples should be labeled as obfuscated")
	}
	// 2 of 5 -> not obfuscated.
	var inputs2 []Input
	for i := 0; i < 5; i++ {
		r := minerRecord(string(rune('a'+i))+"-clear", "4CLEAR_WALLET", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
		r.Obfuscated = i < 2
		inputs2 = append(inputs2, Input{Record: r})
	}
	res2 := a.Aggregate(inputs2)
	if res2.ByWallet["4CLEAR_WALLET"].UsesObfuscation {
		t.Error("campaign with 40% obfuscated samples should not be labeled as obfuscated")
	}
}

func TestFeatureAblationIdentifierOnly(t *testing.T) {
	store := osint.NewDefaultStore()
	cfg := DefaultConfig(store, testDetector(), testPoolDomains())
	cfg.Features = Features{SameIdentifier: true} // everything else off
	a := New(cfg)

	r1 := minerRecord("a1", "4AB_WALLET_1", "xt.freebuf.info:4444", model.Date(2017, 1, 1))
	r1.DNSRR = []string{"xt.freebuf.info"}
	r2 := minerRecord("a2", "4AB_WALLET_2", "xt.freebuf.info:4444", model.Date(2017, 2, 1))
	r2.DNSRR = []string{"xt.freebuf.info"}

	res := a.Aggregate([]Input{{Record: r1}, {Record: r2}})
	// Without the CNAME feature the two wallets stay separate.
	if res.ByWallet["4AB_WALLET_1"].ID == res.ByWallet["4AB_WALLET_2"].ID {
		t.Error("with CNAME feature disabled the campaigns should remain separate")
	}
	full := newAggregator(t).Aggregate([]Input{{Record: r1}, {Record: r2}})
	if full.ByWallet["4AB_WALLET_1"].ID != full.ByWallet["4AB_WALLET_2"].ID {
		t.Error("with all features the campaigns should merge")
	}
}

func TestGroundTruthPropagation(t *testing.T) {
	a := newAggregator(t)
	r1 := minerRecord("g1", "4GT_WALLET", "pool.minexmr.com:4444", model.Date(2017, 1, 1))
	r2 := minerRecord("g2", "4GT_WALLET", "pool.minexmr.com:4444", model.Date(2017, 2, 1))
	res := a.Aggregate([]Input{
		{Record: r1, GroundTruthID: 42},
		{Record: r2, GroundTruthID: 42},
	})
	c := res.ByWallet["4GT_WALLET"]
	if len(c.GroundTruthIDs) != 1 || c.GroundTruthIDs[0] != 42 {
		t.Errorf("ground truth ids = %v", c.GroundTruthIDs)
	}
}

func TestAggregateEmptyAndDegenerate(t *testing.T) {
	a := newAggregator(t)
	res := a.Aggregate(nil)
	if len(res.Campaigns) != 0 {
		t.Errorf("empty input campaigns = %d", len(res.Campaigns))
	}
	res2 := a.Aggregate([]Input{{Record: model.Record{}}}) // no hash
	if len(res2.Campaigns) != 0 {
		t.Errorf("hash-less record should be skipped, campaigns = %d", len(res2.Campaigns))
	}
}

func BenchmarkAggregate1000(b *testing.B) {
	store := osint.NewDefaultStore()
	a := New(DefaultConfig(store, testDetector(), testPoolDomains()))
	var inputs []Input
	for i := 0; i < 1000; i++ {
		w := "4WALLET_" + string(rune('A'+i%100))
		r := minerRecord("bench-"+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+string(rune('0'+(i/100)%10)),
			w, "pool.minexmr.com:4444", model.Date(2017, 1, 1))
		inputs = append(inputs, Input{Record: r})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Aggregate(inputs)
	}
}

// TestNestedPoolDomains: where one pool domain nests inside another, a host
// under both mines at the deeper one's pool, every time, and is no proxy.
func TestNestedPoolDomains(t *testing.T) {
	cfg := DefaultConfig(osint.NewDefaultStore(), nil, map[string]string{
		"pool.example": "outer", "EU.pool.example": "inner",
	})
	a := New(cfg)
	for endpoint, want := range map[string]string{
		"x.eu.pool.example:3333": "inner",
		"eu.pool.example:3333":   "inner",
		"x.pool.example:3333":    "outer",
		"xpool.example:3333":     "",
	} {
		rec := minerRecord("s", "4WALLET", endpoint, model.Date(2018, 1, 1))
		if got := a.poolNameOf(&rec); got != want {
			t.Errorf("poolNameOf(%s) = %q, want %q", endpoint, got, want)
		}
		if _, proxy := a.proxyEndpoint(&rec); proxy != (want == "") {
			t.Errorf("proxyEndpoint(%s) says proxy %v", endpoint, proxy)
		}
	}
}
