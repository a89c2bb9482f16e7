package pool

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cryptomining/internal/pow"
)

// TestDirectoryConcurrentMutation drives the access pattern a live daemon
// produces once interventions go live: one goroutine banning wallets (abuse
// reports), while another crawls the directory the way the prober and the
// keep decision do (Transparent, Names, Get, DomainMap, PoolForDomain, Stats).
// Membership is fixed, so only the ledgers are written. Run with -race.
func TestDirectoryConcurrentMutation(t *testing.T) {
	dir := NewDirectory(nil)
	base := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, p := range dir.Pools() {
		p.SimulateMining("wallet-A", 200, 5000, base, base.AddDate(0, 2, 0), 24*time.Hour, nil)
	}

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, p := range dir.Pools() {
				_ = p.BanWallet("wallet-A", base.AddDate(0, 1, 0))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for _, p := range dir.Transparent() {
				_, _ = p.Stats("wallet-A", base)
				_ = p.DistinctIPs("wallet-A")
			}
			_ = dir.Names()
			_ = dir.DomainMap()
			_, _ = dir.Get("minexmr")
			_, _ = dir.PoolForDomain("pool.minexmr.com")
		}
	}()
	wg.Wait()
}

// snapshots renders every pool of a directory in its canonical JSON form.
func snapshots(t *testing.T, d *Directory) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, p := range d.Pools() {
		b, err := p.MarshalSnapshot()
		if err != nil {
			t.Fatalf("snapshot %s: %v", p.Name, err)
		}
		out[p.Name] = string(b)
	}
	return out
}

// jsonFork is the reference fork: every ledger through its canonical
// snapshot and back, which shares nothing by construction.
func jsonFork(t *testing.T, d *Directory) *Directory {
	t.Helper()
	var pools []*Pool
	for _, p := range d.Pools() {
		b, err := p.MarshalSnapshot()
		if err != nil {
			t.Fatalf("snapshot %s: %v", p.Name, err)
		}
		np := New(p.Name, p.Domains, p.Currency, p.Policy, p.network)
		if err := np.UnmarshalSnapshot(b); err != nil {
			t.Fatalf("restore %s: %v", p.Name, err)
		}
		pools = append(pools, np)
	}
	return NewDirectoryOf(pools...)
}

func sameSnapshots(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pools, want %d", what, len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Fatalf("%s: pool %s ledger differs", what, name)
		}
	}
}

// TestDirectoryForkIsolation writes to a fork and to its source at the same
// time and requires each side to end exactly where its own writes alone take
// a reference copy: no account, payment list, hashrate history or IP set may
// be shared, or one side's appends, in-place retraction or new IPs would show
// on the other (and -race would report the shared memory).
func TestDirectoryForkIsolation(t *testing.T) {
	dir := NewDirectory(nil)
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	live, _ := dir.Get("minexmr") // keeps the hashrate history
	live.SimulateMining("wallet-F", 50, 20000, base, base.AddDate(0, 6, 0), 24*time.Hour, nil)
	live.SimulateMining("wallet-G", 3, 9000, base, base.AddDate(0, 6, 0), 24*time.Hour, nil)
	if live.TotalPaid("wallet-F") <= 0 {
		t.Fatalf("expected simulated earnings before forking")
	}

	fork := dir.Fork()
	sameSnapshots(t, "fork", snapshots(t, fork), snapshots(t, dir))

	forkWrites := func(d *Directory) {
		p, _ := d.Get("minexmr")
		p.SimulateMining("wallet-F", 80, 20000, base.AddDate(0, 6, 0), base.AddDate(0, 8, 0), 24*time.Hour, nil)
		if ret := p.RetractEarningsFrom("wallet-F", base.AddDate(0, 3, 0)); ret.RemovedXMR <= 0 {
			t.Errorf("retraction removed nothing")
		}
		// Retracted, then mining again: the appends land where the source's
		// entries after the cut still are.
		p.RetractEarningsFrom("wallet-G", base.AddDate(0, 1, 0))
		p.SimulateMining("wallet-G", 5, 9000, base.AddDate(0, 2, 0), base.AddDate(0, 3, 0), 24*time.Hour, nil)
	}
	liveWrites := func(d *Directory) {
		p, _ := d.Get("minexmr")
		for i := 0; i < 20; i++ {
			at := base.AddDate(0, 6, i)
			if err := p.RegisterConnection("wallet-F", fmt.Sprintf("192.0.2.%d", i)); err != nil {
				t.Errorf("register: %v", err)
			}
			if err := p.Credit("wallet-F", "198.51.100.1", 5e10, pow.AlgorithmAt(p.network.Epochs, at), at); err != nil {
				t.Errorf("credit: %v", err)
			}
			p.recordHashrate("wallet-G", 42, at)
		}
	}
	wantFork, wantLive := jsonFork(t, fork), jsonFork(t, dir)
	forkWrites(wantFork)
	liveWrites(wantLive)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); forkWrites(fork) }()
	go func() { defer wg.Done(); liveWrites(dir) }()
	wg.Wait()

	sameSnapshots(t, "live after both sides wrote", snapshots(t, dir), snapshots(t, wantLive))
	sameSnapshots(t, "fork after both sides wrote", snapshots(t, fork), snapshots(t, wantFork))
	if live.IsBanned("wallet-F") {
		t.Fatalf("live ledger banned through fork")
	}
}

func TestRetractEarningsFrom(t *testing.T) {
	p := New("testpool", []string{"testpool.example"}, "XMR", DefaultPolicy(), nil)
	base := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	p.SimulateMining("w", 5, 30000, base, base.AddDate(0, 4, 0), 24*time.Hour, nil)
	st, err := p.Stats("w", base.AddDate(1, 0, 0))
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if len(st.Payments) == 0 {
		t.Fatalf("expected payments from simulated mining")
	}

	cut := base.AddDate(0, 2, 0)
	var expectKept int
	var expectPaid float64
	for _, pay := range st.Payments {
		if pay.Timestamp.Before(cut) {
			expectKept++
			expectPaid += pay.Amount
		}
	}
	ret := p.RetractEarningsFrom("w", cut)
	if ret.RemovedPayments != len(st.Payments)-expectKept {
		t.Fatalf("removed %d payments, want %d", ret.RemovedPayments, len(st.Payments)-expectKept)
	}

	after, err := p.Stats("w", base.AddDate(1, 0, 0))
	if err != nil {
		t.Fatalf("Stats after retraction: %v", err)
	}
	if len(after.Payments) != expectKept {
		t.Fatalf("kept %d payments, want %d", len(after.Payments), expectKept)
	}
	if after.TotalPaid != expectPaid {
		t.Fatalf("total paid %v, want %v", after.TotalPaid, expectPaid)
	}
	if after.Balance != 0 {
		t.Fatalf("balance %v after retraction, want 0", after.Balance)
	}
	if !after.Banned || !after.BannedAt.Equal(cut) {
		t.Fatalf("wallet not banned at cut: banned=%v at=%v", after.Banned, after.BannedAt)
	}
	if !after.LastShare.Before(cut) {
		t.Fatalf("last share %v not clamped before %v", after.LastShare, cut)
	}

	// Unknown wallets are a no-op and must not create an account.
	if ret := p.RetractEarningsFrom("never-seen", cut); ret.RemovedXMR != 0 || ret.RemovedPayments != 0 {
		t.Fatalf("retraction of unknown wallet removed %+v", ret)
	}
	if _, err := p.Stats("never-seen", cut); err == nil {
		t.Fatalf("retraction created an account for an unknown wallet")
	}
}
