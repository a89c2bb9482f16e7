package pool

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/pow"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func newTestPool(policy Policy) *Pool {
	return New("testpool", []string{"testpool.example"}, model.CurrencyMonero, policy, pow.NewMoneroNetwork())
}

func TestCreditAccumulatesAndPays(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	at := date(2017, 6, 1)
	// Credit a large amount of work in one go: a 2000-bot day.
	hashes := 2000 * pow.TypicalVictimHashrate * 86400
	if err := p.Credit("4WALLET", "1.2.3.4", hashes, "cryptonight", at); err != nil {
		t.Fatalf("Credit error: %v", err)
	}
	stats, err := p.Stats("4WALLET", at)
	if err != nil {
		t.Fatalf("Stats error: %v", err)
	}
	if stats.TotalPaid <= 0 && stats.Balance <= 0 {
		t.Error("credited work should produce balance or payments")
	}
	if stats.TotalPaid > 0 && stats.NumPayments == 0 {
		t.Error("payments counter should track payouts")
	}
	if stats.LastShare != at {
		t.Errorf("LastShare = %v, want %v", stats.LastShare, at)
	}
}

func TestCreditInvalidInput(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	if err := p.Credit("", "1.1.1.1", 100, "cryptonight", date(2017, 1, 1)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty wallet error = %v", err)
	}
	if err := p.Credit("4W", "1.1.1.1", -5, "cryptonight", date(2017, 1, 1)); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("negative hashes error = %v", err)
	}
}

func TestCreditStaleAlgorithmRejected(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	// Mining with the original algorithm after the April 2018 fork fails.
	err := p.Credit("4WALLET", "1.2.3.4", 1e9, "cryptonight", date(2018, 5, 1))
	if !errors.Is(err, ErrStaleAlgo) {
		t.Errorf("stale algo error = %v, want ErrStaleAlgo", err)
	}
	// Updated miner works.
	if err := p.Credit("4WALLET", "1.2.3.4", 1e9, "cryptonight-v7", date(2018, 5, 1)); err != nil {
		t.Errorf("updated algo error = %v", err)
	}
	// With enforcement disabled, stale shares are accepted.
	lax := DefaultPolicy()
	lax.EnforceAlgorithm = false
	p2 := newTestPool(lax)
	if err := p2.Credit("4WALLET", "1.2.3.4", 1e9, "cryptonight", date(2018, 5, 1)); err != nil {
		t.Errorf("non-enforcing pool error = %v", err)
	}
}

func TestBanPolicyOnManyIPs(t *testing.T) {
	policy := DefaultPolicy()
	policy.BanIPThreshold = 50
	p := newTestPool(policy)
	at := date(2017, 3, 1)
	for i := 0; i < 60; i++ {
		ip := "10.0.0." + string(rune('0'+i%10)) + string(rune('0'+i/10))
		_ = p.Credit("4BOTNET", ip, 1000, "cryptonight", at)
	}
	if !p.IsBanned("4BOTNET") {
		t.Error("wallet mined from >50 IPs should be banned")
	}
	if err := p.Credit("4BOTNET", "10.9.9.9", 1000, "cryptonight", at.AddDate(0, 0, 1)); !errors.Is(err, ErrBanned) {
		t.Errorf("post-ban credit error = %v, want ErrBanned", err)
	}
	// A proxy user with a single IP never trips the threshold.
	for i := 0; i < 500; i++ {
		if err := p.Credit("4PROXYUSER", "203.0.113.7", 1000, "cryptonight", at); err != nil {
			t.Fatalf("proxy user credit error: %v", err)
		}
	}
	if p.IsBanned("4PROXYUSER") {
		t.Error("single-IP (proxy) wallet should not be banned")
	}
}

func TestManualBanAndIntervention(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	at := date(2018, 9, 1)
	_ = p.Credit("4FREEBUF", "1.1.1.1", 1e10, "cryptonight-v7", at)
	if err := p.BanWallet("4FREEBUF", date(2018, 10, 1)); err != nil {
		t.Fatalf("BanWallet error: %v", err)
	}
	if err := p.Credit("4FREEBUF", "1.1.1.1", 1e9, "cryptonight-v8", date(2018, 11, 1)); !errors.Is(err, ErrBanned) {
		t.Errorf("credit after manual ban = %v, want ErrBanned", err)
	}
	stats, _ := p.Stats("4FREEBUF", date(2018, 11, 1))
	if !stats.Banned || stats.BannedAt != date(2018, 10, 1) {
		t.Errorf("stats ban fields = %+v", stats)
	}
	if err := p.BanWallet("4UNKNOWN", at); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("ban unknown wallet = %v", err)
	}
}

func TestOpaquePoolStats(t *testing.T) {
	policy := DefaultPolicy()
	policy.Transparent = false
	p := newTestPool(policy)
	_ = p.Credit("miner@mail.ru", "1.1.1.1", 1e8, "cryptonight", date(2017, 1, 1))
	if _, err := p.Stats("miner@mail.ru", date(2017, 2, 1)); !errors.Is(err, ErrOpaquePool) {
		t.Errorf("opaque pool stats error = %v, want ErrOpaquePool", err)
	}
}

func TestStatsUnknownWallet(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	if _, err := p.Stats("4NEVER_SEEN", date(2018, 1, 1)); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown wallet stats error = %v, want ErrUnknownUser", err)
	}
}

func TestSimulateMiningProducesPaymentsOverTime(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	rejected := p.SimulateMining("4CAMPAIGN", 200, 200*pow.TypicalVictimHashrate,
		date(2017, 1, 1), date(2017, 7, 1), 24*time.Hour, nil)
	if rejected != 0 {
		t.Errorf("well-maintained miner should have no rejected intervals, got %d", rejected)
	}
	stats, err := p.Stats("4CAMPAIGN", date(2017, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalPaid <= 0 {
		t.Error("six months of botnet mining should produce payments")
	}
	if stats.NumPayments < 2 {
		t.Errorf("expected multiple payments, got %d", stats.NumPayments)
	}
	// Payments must be timestamped within the mining window.
	for _, pay := range stats.Payments {
		if pay.Timestamp.Before(date(2017, 1, 1)) || pay.Timestamp.After(date(2017, 7, 1)) {
			t.Errorf("payment timestamp %v outside mining window", pay.Timestamp)
		}
		if pay.Amount <= 0 {
			t.Errorf("payment amount = %v", pay.Amount)
		}
	}
}

func TestSimulateMiningStaleMinerDiesAtFork(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	// Miner stuck on the original algorithm mines across the April 2018 fork.
	stale := func(time.Time) string { return "cryptonight" }
	rejected := p.SimulateMining("4STUCK", 100, 100*pow.TypicalVictimHashrate,
		date(2018, 3, 1), date(2018, 5, 1), 24*time.Hour, stale)
	if rejected == 0 {
		t.Error("intervals after the fork should be rejected for a stale miner")
	}
	stats, err := p.Stats("4STUCK", date(2018, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Last accepted share must be before the fork date.
	if !stats.LastShare.Before(date(2018, 4, 7)) {
		t.Errorf("last share %v should precede the fork", stats.LastShare)
	}
}

func TestHistoricHashrateOnlyWhenEnabled(t *testing.T) {
	withHist := DefaultPolicy()
	withHist.ProvidesHistoricHashrate = true
	p1 := newTestPool(withHist)
	p1.SimulateMining("4W", 10, 1000, date(2017, 1, 1), date(2017, 1, 10), 24*time.Hour, nil)
	s1, _ := p1.Stats("4W", date(2017, 2, 1))
	if len(s1.HistoricHashrate) == 0 {
		t.Error("historic hashrate should be recorded when enabled")
	}

	p2 := newTestPool(DefaultPolicy())
	p2.SimulateMining("4W", 10, 1000, date(2017, 1, 1), date(2017, 1, 10), 24*time.Hour, nil)
	s2, _ := p2.Stats("4W", date(2017, 2, 1))
	if len(s2.HistoricHashrate) != 0 {
		t.Error("historic hashrate should be absent when disabled")
	}
}

func TestWalletsAndTotals(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	p.SimulateMining("4B", 5, 5000, date(2017, 1, 1), date(2017, 3, 1), 24*time.Hour, nil)
	p.SimulateMining("4A", 5, 5000, date(2017, 1, 1), date(2017, 3, 1), 24*time.Hour, nil)
	ws := p.Wallets()
	if len(ws) != 2 || ws[0] != "4A" || ws[1] != "4B" {
		t.Errorf("Wallets() = %v", ws)
	}
	if p.TotalPaid("4A") <= 0 {
		t.Error("TotalPaid(4A) should be positive")
	}
	if p.TotalPaid("4MISSING") != 0 {
		t.Error("TotalPaid(unknown) should be 0")
	}
	total := p.TotalPaidAll()
	if total < p.TotalPaid("4A")+p.TotalPaid("4B")-1e-9 {
		t.Errorf("TotalPaidAll = %v < sum of parts", total)
	}
}

func TestDistinctIPs(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	p.SimulateMining("4W", 137, 1000, date(2017, 1, 1), date(2017, 6, 1), 24*time.Hour, nil)
	if got := p.DistinctIPs("4W"); got == 0 || got > 137 {
		t.Errorf("DistinctIPs = %d, want in (0, 137]", got)
	}
	if p.DistinctIPs("4NONE") != 0 {
		t.Error("DistinctIPs of unknown wallet should be 0")
	}
}

func TestRegisterConnection(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	if err := p.RegisterConnection("", "1.1.1.1"); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("empty login = %v", err)
	}
	if err := p.RegisterConnection("4W", "1.1.1.1"); err != nil {
		t.Errorf("RegisterConnection error: %v", err)
	}
	_ = p.BanWallet("4W", date(2018, 1, 1))
	if err := p.RegisterConnection("4W", "1.1.1.2"); !errors.Is(err, ErrBanned) {
		t.Errorf("banned login = %v, want ErrBanned", err)
	}
}

// TestSnapshotRoundTrip restores a ledger from its snapshot and requires the
// same wallet figures and a byte-identical re-snapshot: wallets and their IPs
// live in maps, so the snapshot must sort both.
func TestSnapshotRoundTrip(t *testing.T) {
	p := newTestPool(DefaultPolicy())
	p.SimulateMining("4SNAP", 20, 20*pow.TypicalVictimHashrate, date(2017, 1, 1), date(2017, 6, 1), 24*time.Hour, nil)
	for i := 0; i < 16; i++ {
		p.SimulateMining(fmt.Sprintf("4W%02d", i), 4, pow.TypicalVictimHashrate, date(2017, 1, 1), date(2017, 2, 1), 24*time.Hour, nil)
	}
	before, err := p.Stats("4SNAP", date(2017, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.MarshalSnapshot()
	if err != nil {
		t.Fatalf("MarshalSnapshot error: %v", err)
	}
	restored := newTestPool(DefaultPolicy())
	if err := restored.UnmarshalSnapshot(data); err != nil {
		t.Fatalf("UnmarshalSnapshot error: %v", err)
	}
	after, err := restored.Stats("4SNAP", date(2017, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if before.TotalPaid != after.TotalPaid || before.Hashes != after.Hashes || before.NumPayments != after.NumPayments {
		t.Errorf("snapshot round trip mismatch: before=%+v after=%+v", before, after)
	}
	again, err := restored.MarshalSnapshot()
	if err != nil {
		t.Fatalf("MarshalSnapshot after restore: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Errorf("snapshot not byte-stable across restore (%d vs %d bytes)", len(data), len(again))
	}
	if err := restored.UnmarshalSnapshot([]byte("{invalid")); err == nil {
		t.Error("invalid snapshot should error")
	}
}

func TestDirectoryKnownPools(t *testing.T) {
	d := NewDirectory(nil)
	names := d.Names()
	wantSome := []string{"crypto-pool", "dwarfpool", "minexmr", "supportxmr", "minergate", "nanopool"}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	for _, w := range wantSome {
		if !got[w] {
			t.Errorf("directory missing pool %q", w)
		}
	}
	mg, ok := d.Get("minergate")
	if !ok {
		t.Fatal("minergate should exist")
	}
	if mg.Policy.Transparent {
		t.Error("minergate must be opaque")
	}
	mx, _ := d.Get("minexmr")
	if !mx.Policy.ProvidesHistoricHashrate {
		t.Error("minexmr should expose historic hashrate")
	}
	if len(d.Transparent()) != len(names)-1 {
		t.Errorf("Transparent() = %d pools, want all but minergate", len(d.Transparent()))
	}
}

func TestDirectoryDomainMapAndLookup(t *testing.T) {
	d := NewDirectory(nil)
	dm := d.DomainMap()
	if dm["minexmr.com"] != "minexmr" || dm["crypto-pool.fr"] != "crypto-pool" {
		t.Errorf("domain map incomplete: %v", dm)
	}
	p, ok := d.PoolForDomain("pool.minexmr.com")
	if !ok || p.Name != "minexmr" {
		t.Errorf("PoolForDomain(pool.minexmr.com) = %v, %v", p, ok)
	}
	p, ok = d.PoolForDomain("xmr-eu.dwarfpool.com")
	if !ok || p.Name != "dwarfpool" {
		t.Errorf("PoolForDomain(dwarfpool subdomain) = %v, %v", p, ok)
	}
	if _, ok := d.PoolForDomain("github.com"); ok {
		t.Error("github.com should not map to a pool")
	}
	if _, ok := d.PoolForDomain("notminexmr.com"); ok {
		t.Error("suffix without dot boundary should not match")
	}
}

func TestNewDirectoryOf(t *testing.T) {
	b := New("b-pool", []string{"b.example"}, model.CurrencyMonero, DefaultPolicy(), nil)
	opaque := DefaultPolicy()
	opaque.Transparent = false
	a := New("a-pool", []string{"a.example"}, model.CurrencyMonero, opaque, nil)
	d := NewDirectoryOf(b, a)
	if got := d.Names(); len(got) != 2 || got[0] != "a-pool" || got[1] != "b-pool" {
		t.Fatalf("Names() = %v, want [a-pool b-pool]", got)
	}
	if p, _ := d.Get("a-pool"); p != a {
		t.Error("Get(a-pool) returned another pool")
	}
	if tr := d.Transparent(); len(tr) != 1 || tr[0] != b {
		t.Errorf("Transparent() = %v, want only b-pool", tr)
	}
	if p, ok := d.PoolForDomain("pool.b.example"); !ok || p != b {
		t.Errorf("PoolForDomain(pool.b.example) = %v, %v", p, ok)
	}
}

func BenchmarkCredit(b *testing.B) {
	p := newTestPool(DefaultPolicy())
	at := date(2017, 6, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Credit("4BENCH", "1.2.3.4", 5000, "cryptonight", at)
	}
}

func BenchmarkSimulateMiningYear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := newTestPool(DefaultPolicy())
		p.SimulateMining("4BENCH", 100, 100*pow.TypicalVictimHashrate,
			date(2017, 1, 1), date(2018, 1, 1), 24*time.Hour, nil)
	}
}
