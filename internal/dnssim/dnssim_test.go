package dnssim

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func poolDomains() map[string]string {
	return map[string]string{
		"minexmr.com":    "minexmr",
		"crypto-pool.fr": "crypto-pool",
		"dwarfpool.com":  "dwarfpool",
		"supportxmr.com": "supportxmr",
		"ppxxmr.com":     "ppxxmr",
	}
}

func TestResolveARecord(t *testing.T) {
	z := NewZone()
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	r := NewResolver(z)
	res, err := r.Resolve("pool.minexmr.com")
	if err != nil {
		t.Fatalf("Resolve error: %v", err)
	}
	if len(res.IPs) != 1 || res.IPs[0] != "94.130.12.30" {
		t.Errorf("IPs = %v", res.IPs)
	}
	if len(res.Chain) != 0 {
		t.Errorf("Chain = %v, want empty", res.Chain)
	}
	if finalName(res) != "pool.minexmr.com" {
		t.Errorf("final name = %q", finalName(res))
	}
}

func TestResolveNXDomain(t *testing.T) {
	r := NewResolver(NewZone())
	if _, err := r.Resolve("does-not-exist.example"); !errors.Is(err, ErrNXDomain) {
		t.Errorf("error = %v, want NXDOMAIN", err)
	}
}

func TestResolveCNAMEChain(t *testing.T) {
	z := NewZone()
	z.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	r := NewResolver(z)
	res, err := r.Resolve("XT.FREEBUF.INFO.") // case and trailing dot normalize
	if err != nil {
		t.Fatalf("Resolve error: %v", err)
	}
	if len(res.Chain) != 1 || res.Chain[0] != "pool.minexmr.com" {
		t.Errorf("Chain = %v", res.Chain)
	}
	if finalName(res) != "pool.minexmr.com" {
		t.Errorf("final name = %q", finalName(res))
	}
	if len(res.IPs) != 1 {
		t.Errorf("IPs = %v", res.IPs)
	}
}

func TestResolveCNAMEToNameWithoutA(t *testing.T) {
	z := NewZone()
	z.AddCNAME("alias.example.com", "pool.dwarfpool.com", time.Time{})
	r := NewResolver(z)
	res, err := r.Resolve("alias.example.com")
	if err != nil {
		t.Fatalf("Resolve error: %v", err)
	}
	if finalName(res) != "pool.dwarfpool.com" || len(res.IPs) != 0 {
		t.Errorf("resolution = %+v", res)
	}
}

func TestResolveCNAMELoop(t *testing.T) {
	z := NewZone()
	z.AddCNAME("a.example.com", "b.example.com", time.Time{})
	z.AddCNAME("b.example.com", "a.example.com", time.Time{})
	r := NewResolver(z)
	if _, err := r.Resolve("a.example.com"); !errors.Is(err, ErrCNAMELoop) {
		t.Errorf("error = %v, want CNAME loop", err)
	}
}

func TestResolveAtHistoricalTime(t *testing.T) {
	z := NewZone()
	// x.alibuf.com pointed to crypto-pool until mid-2017, then to minexmr
	// (the dual-alias behaviour §IV-E describes).
	z.AddCNAME("x.alibuf.com", "mine.crypto-pool.fr", date(2016, 6, 1))
	z.Retire("x.alibuf.com", TypeCNAME, date(2017, 6, 1))
	z.AddCNAME("x.alibuf.com", "pool.minexmr.com", date(2017, 6, 2))

	r := NewResolver(z)
	early, err := r.ResolveAt("x.alibuf.com", date(2017, 1, 1))
	if err != nil {
		t.Fatalf("ResolveAt(2017-01) error: %v", err)
	}
	if finalName(early) != "mine.crypto-pool.fr" {
		t.Errorf("2017-01 target = %q, want crypto-pool", finalName(early))
	}
	late, err := r.ResolveAt("x.alibuf.com", date(2018, 1, 1))
	if err != nil {
		t.Fatalf("ResolveAt(2018-01) error: %v", err)
	}
	if finalName(late) != "pool.minexmr.com" {
		t.Errorf("2018-01 target = %q, want minexmr", finalName(late))
	}
	// Before the record existed: NXDOMAIN.
	if _, err := r.ResolveAt("x.alibuf.com", date(2015, 1, 1)); !errors.Is(err, ErrNXDomain) {
		t.Errorf("pre-registration resolution error = %v, want NXDOMAIN", err)
	}
}

func TestHistory(t *testing.T) {
	z := NewZone()
	z.AddCNAME("xmrf.fjhan.club", "mine.crypto-pool.fr", date(2016, 1, 1))
	z.Retire("xmrf.fjhan.club", TypeCNAME, date(2017, 1, 1))
	z.AddCNAME("xmrf.fjhan.club", "pool.supportxmr.com", date(2017, 2, 1))
	hist := z.History("xmrf.fjhan.club")
	if len(hist) != 2 {
		t.Fatalf("history = %d records, want 2", len(hist))
	}
	if hist[0].Value != "mine.crypto-pool.fr" || hist[1].Value != "pool.supportxmr.com" {
		t.Errorf("history order = %v", hist)
	}
	if hist[0].To.IsZero() {
		t.Error("retired record should have a To date")
	}
}

func TestAliasDetectorLive(t *testing.T) {
	z := NewZone()
	z.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	d := NewAliasDetector(z, poolDomains())
	f, ok := d.Detect("xt.freebuf.info")
	if !ok {
		t.Fatal("alias not detected")
	}
	if f.Pool != "minexmr" || f.Historical {
		t.Errorf("finding = %+v", f)
	}
}

func TestAliasDetectorHistorical(t *testing.T) {
	z := NewZone()
	z.AddCNAME("x.alibuf.com", "mine.crypto-pool.fr", date(2016, 6, 1))
	z.Retire("x.alibuf.com", TypeCNAME, date(2017, 6, 1))
	// Currently the name has no records at all (criminal abandoned it).
	d := NewAliasDetector(z, poolDomains())
	f, ok := d.Detect("x.alibuf.com")
	if !ok {
		t.Fatal("historical alias not detected")
	}
	if f.Pool != "crypto-pool" || !f.Historical {
		t.Errorf("finding = %+v", f)
	}
}

func TestAliasDetectorPoolDomainNotAlias(t *testing.T) {
	z := NewZone()
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	d := NewAliasDetector(z, poolDomains())
	if _, _, ok := d.matchPool("pool.minexmr.com"); !ok {
		t.Error("pool.minexmr.com should be recognized as a pool domain")
	}
	if _, ok := d.Detect("pool.minexmr.com"); ok {
		t.Error("a pool's own domain must not be reported as an alias")
	}
}

// TestAliasDetectorNestedPoolDomains: where one pool domain nests inside
// another, an alias of a host under both is attributed to the deeper one,
// every time.
func TestAliasDetectorNestedPoolDomains(t *testing.T) {
	z := NewZone()
	z.AddCNAME("alias.example.net", "x.eu.pool.example", time.Time{})
	z.AddA("x.eu.pool.example", "10.0.0.1", time.Time{})
	domains := map[string]string{"pool.example": "outer", "eu.pool.example": "inner", "Other.Example.": "other"}
	d := NewAliasDetector(z, domains)
	f, ok := d.Detect("alias.example.net")
	if !ok || f.Pool != "inner" || f.PoolDomain != "eu.pool.example" {
		t.Errorf("Detect(alias of x.eu.pool.example) = %+v, %v; want pool inner at eu.pool.example", f, ok)
	}
	if pool, dom, ok := d.matchPool("a.b.Other.example."); !ok || pool != "other" || dom != "other.example" {
		t.Errorf("matchPool of a subdomain of a non-normalized pool domain = %q, %q, %v", pool, dom, ok)
	}
}

func TestDomainIndexMatch(t *testing.T) {
	ix := IndexDomains(map[string]string{
		"pool.example": "outer", "eu.pool.example": "inner",
		"A.example": "upper", "a.example": "lower",
	}, strings.ToLower)
	for host, want := range map[string]string{
		"pool.example":        "outer",
		"x.pool.example":      "outer",
		"eu.pool.example":     "inner",
		"x.y.eu.pool.example": "inner",
		"xeu.pool.example":    "outer",
		"mypool.example":      "",
		"example":             "",
		"":                    "",
		"a.example":           "upper", // "A.example" sorts first
	} {
		_, got, ok := ix.Match(host)
		if got != want || ok != (want != "") {
			t.Errorf("Match(%q) = %q, %v; want %q", host, got, ok, want)
		}
	}
}

func TestAliasDetectorUnrelatedDomain(t *testing.T) {
	z := NewZone()
	z.AddA("github.com", "140.82.121.3", time.Time{})
	d := NewAliasDetector(z, poolDomains())
	if _, ok := d.Detect("github.com"); ok {
		t.Error("unrelated domain should not be an alias")
	}
	if _, ok := d.Detect("unregistered.example"); ok {
		t.Error("NXDOMAIN should not be an alias")
	}
}

func TestAliasDetectorDetectAll(t *testing.T) {
	z := NewZone()
	z.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	z.AddCNAME("xmr.usa-138.com", "mine.crypto-pool.fr", time.Time{})
	z.AddA("github.com", "140.82.121.3", time.Time{})
	d := NewAliasDetector(z, poolDomains())
	findings := d.DetectAll([]string{
		"xt.freebuf.info", "github.com", "xmr.usa-138.com", "xt.freebuf.info", "", "nonexistent.tld",
	})
	if len(findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(findings))
	}
	// Deterministic order: sorted by alias.
	if findings[0].Alias != "xmr.usa-138.com" || findings[1].Alias != "xt.freebuf.info" {
		t.Errorf("findings order = %+v", findings)
	}
}

func TestZoneNames(t *testing.T) {
	z := NewZone()
	z.AddA("b.example.com", "1.1.1.1", time.Time{})
	z.AddA("a.example.com", "1.1.1.2", time.Time{})
	names := z.Names()
	if len(names) != 2 || names[0] != "a.example.com" {
		t.Errorf("Names = %v", names)
	}
}

func TestRecordActiveAt(t *testing.T) {
	r := Record{From: date(2017, 1, 1), To: date(2018, 1, 1)}
	if !r.activeAt(date(2017, 6, 1)) {
		t.Error("record should be active mid-interval")
	}
	if r.activeAt(date(2016, 1, 1)) || r.activeAt(date(2019, 1, 1)) {
		t.Error("record should be inactive outside interval")
	}
	if r.activeAt(time.Time{}) {
		t.Error("retired record should not be active 'now'")
	}
	open := Record{From: date(2017, 1, 1)}
	if !open.activeAt(time.Time{}) {
		t.Error("open record should be active 'now'")
	}
}

func TestConcurrentZoneAccess(t *testing.T) {
	z := NewZone()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			z.AddA("concurrent.example.com", "10.0.0.1", time.Time{})
		}
		close(done)
	}()
	r := NewResolver(z)
	for i := 0; i < 500; i++ {
		_, _ = r.Resolve("concurrent.example.com")
	}
	<-done
}

func BenchmarkAliasDetect(b *testing.B) {
	z := NewZone()
	z.AddCNAME("xt.freebuf.info", "pool.minexmr.com", time.Time{})
	z.AddA("pool.minexmr.com", "94.130.12.30", time.Time{})
	d := NewAliasDetector(z, poolDomains())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Detect("xt.freebuf.info")
	}
}

// finalName is the last name in the CNAME chain, or the query itself when
// no CNAME was involved.
func finalName(r Resolution) string {
	if len(r.Chain) == 0 {
		return r.Query
	}
	return r.Chain[len(r.Chain)-1]
}
