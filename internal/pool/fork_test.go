package pool_test

import (
	"testing"
	"time"

	"cryptomining/internal/ecosim"
	"cryptomining/internal/pool"
)

// benchDirectories returns the pool directories behind the benchmark's two
// corpora (cmd/bench): the materialised universe heavy-drain takes its
// samples from, and the streamed ecosystem of wide-drain with its ledgers.
func benchDirectories() map[string]*pool.Directory {
	cfg := ecosim.DefaultConfig().Scale(217.0 / 2170)
	cfg.Seed = 2019
	u := ecosim.Generate(cfg)
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019, Ledger: true})
	for i := 0; i < 4250; i++ {
		gen.Next()
	}
	return map[string]*pool.Directory{"heavy": u.Pools, "wide": gen.Pools()}
}

// requireForkMatchesRoundTrip checks that a structural fork of d re-marshals
// byte-equal to each ledger's trip through its canonical JSON snapshot.
func requireForkMatchesRoundTrip(t *testing.T, what string, d *pool.Directory) {
	t.Helper()
	fork := d.Fork()
	if got, want := fork.Names(), d.Names(); len(got) != len(want) {
		t.Fatalf("%s: fork has %d pools, want %d", what, len(got), len(want))
	}
	for _, p := range d.Pools() {
		src, err := p.MarshalSnapshot()
		if err != nil {
			t.Fatalf("%s: snapshot %s: %v", what, p.Name, err)
		}
		oracle := pool.New(p.Name, p.Domains, p.Currency, p.Policy, nil)
		if err := oracle.UnmarshalSnapshot(src); err != nil {
			t.Fatalf("%s: restore %s: %v", what, p.Name, err)
		}
		want, _ := oracle.MarshalSnapshot()
		fp, ok := fork.Get(p.Name)
		if !ok {
			t.Fatalf("%s: fork lost pool %s", what, p.Name)
		}
		got, _ := fp.MarshalSnapshot()
		if string(got) != string(want) {
			t.Fatalf("%s: fork of %s re-marshals differently from the JSON round trip", what, p.Name)
		}
		if fp.Policy != p.Policy || fp.Currency != p.Currency || len(fp.Domains) != len(p.Domains) {
			t.Fatalf("%s: fork of %s changed the pool's identity", what, p.Name)
		}
	}
}

func TestForkMatchesSnapshotRoundTrip(t *testing.T) {
	cut := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	for name, d := range benchDirectories() {
		requireForkMatchesRoundTrip(t, name, d)

		// A scenario's interventions: bans of a third of each pool's
		// wallets, retractions of a fifth, then a fork of the result.
		shadow := d.Fork()
		var wallets int
		for _, p := range shadow.Pools() {
			for i, w := range p.Wallets() {
				wallets++
				if i%3 == 0 {
					_ = p.BanWallet(w, cut)
				}
				if i%5 == 0 {
					p.RetractEarningsFrom(w, cut)
				}
			}
		}
		if wallets == 0 {
			t.Fatalf("%s: the corpus's ledgers hold no wallets", name)
		}
		requireForkMatchesRoundTrip(t, name+" after bans and retractions", shadow)
	}
}
