package stream

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cryptomining/internal/campaign"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
	"cryptomining/internal/pool"
	"cryptomining/internal/probe"
	"cryptomining/internal/profit"
)

// costDonation is a whitelisted donation wallet one kept sample mines to.
const costDonation = "4Adonation"

// costEngine builds an unstarted engine whose partition holds n clean
// single-wallet campaigns, one campaign of three wallets ("multi") and one
// sample mining to a donation wallet, all published, by feeding the
// aggregator directly. collect calls are counted.
func costEngine(t *testing.T, n int, prober *probe.Scheduler) (e *Engine, calls *int) {
	t.Helper()
	at := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	store := osint.NewDefaultStore()
	store.AddDonationWallet(costDonation, "xmrig")
	e = New(Config{
		OSINT:     store,
		QueryTime: at,
		Prober:    prober,
		Clock:     func() time.Time { return at },
	})
	calls = new(int)
	e.col.collect = func(w string) profit.WalletActivity {
		*calls++
		return profit.WalletActivity{Wallet: w, TotalXMR: float64(len(w))}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < n; i++ {
		e.col.agg.Add(costInput(i, 0, costWallet(i)))
		e.col.seenWallets[costWallet(i)] = true
	}
	for j, w := range []string{"4Amulti-a", "4Amulti-b", "4Amulti-c"} {
		in := costInput(n, j, w)
		in.Record.ITWURLs = []string{"http://203.0.113.7/multi.exe"}
		e.col.agg.Add(in)
		e.col.seenWallets[w] = true
	}
	e.col.agg.Add(costInput(n+1, 0, costDonation))
	e.col.seenWallets[costDonation] = true
	e.publishViewLocked()
	if got := len(e.view.Load().Campaigns); got != n+2 {
		t.Fatalf("%d campaigns published, want %d", got, n+2)
	}
	return e, calls
}

func costWallet(i int) string { return fmt.Sprintf("4Awallet%06d", i) }

// costInput is member k of campaign i. Member 0 has the least hash of its
// campaign, so later members neither re-key the component nor shift an ID.
func costInput(i, k int, wallet string) campaign.Input {
	return campaign.Input{Record: model.Record{
		SHA256:    fmt.Sprintf("%032x%032x", i+1, k),
		Type:      model.TypeMiner,
		User:      wallet,
		FirstSeen: time.Date(2016+i%3, 1, 1, 0, 0, 0, 0, time.UTC),
	}}
}

// publishAllocs bounds the allocation count of one Add into an existing
// single-wallet campaign followed by the publication. Measured on go1.24: 30
// (32 under the race detector) — the aggregator's copy of the input and its
// graph bookkeeping, one rebuilt campaign, one re-derived entry, and the view
// with its three flat slices and the yearly table. None of it is per clean
// campaign.
const publishAllocs = 32

// TestPublishCostDoesNotScaleWithCorpus pins that a publication pays for the
// components dirtied since the last one and for nothing else: the same
// allocation count (to within one) at 200 and at 2,000 clean campaigns (the
// flat listing copies are one allocation each whatever their length), exactly as many
// aggregator rebuilds as dirtied components, and every clean entry reused.
func TestPublishCostDoesNotScaleWithCorpus(t *testing.T) {
	measure := func(n int) float64 {
		e, calls := costEngine(t, n, nil)
		e.mu.Lock()
		defer e.mu.Unlock()
		k := 0
		allocs := testing.AllocsPerRun(50, func() {
			k++
			e.col.agg.Add(costInput(7, k, costWallet(7)))
			e.publishViewLocked()
		})
		// One wallet in the dirtied campaign: one collect call per publication
		// (AllocsPerRun adds a warm-up run).
		if *calls-(n+3) != 51 {
			t.Errorf("n=%d: %d collect calls for 51 publications of a one-wallet campaign", n, *calls-(n+3))
		}
		return allocs
	}
	// The race detector's own bookkeeping moves the truncated mean by one
	// either way; a cost per clean campaign would move it by 1,800.
	small, large := measure(200), measure(2000)
	if d := small - large; d < -1 || d > 1 {
		t.Errorf("Add+publish allocates %v times at 200 campaigns and %v at 2,000", small, large)
	}
	if small > publishAllocs {
		t.Errorf("Add+publish allocates %v times, budget %d", small, publishAllocs)
	}
	t.Logf("Add+publish: %v allocations at 200 and %v at 2,000 campaigns", small, large)

	e, _ := costEngine(t, 300, nil)
	e.mu.Lock()
	defer e.mu.Unlock()
	before, epoch := e.col.agg.Rebuilds(), e.view.Load().Epoch
	// Three inputs into two existing campaigns and one new campaign: three
	// dirtied components.
	e.col.agg.Add(costInput(11, 1, costWallet(11)))
	e.col.agg.Add(costInput(11, 2, costWallet(11)))
	e.col.agg.Add(costInput(42, 1, costWallet(42)))
	e.col.agg.Add(costInput(900, 0, costWallet(900)))
	if rederived := e.col.refreshEntries(); rederived != 3 {
		t.Errorf("%d entries re-derived, want 3", rederived)
	}
	if got := e.col.agg.Rebuilds() - before; got != 3 {
		t.Errorf("aggregator rebuilt %d components, want 3", got)
	}
	e.publishViewLocked()
	if got := e.col.agg.Rebuilds() - before; got != 3 {
		t.Errorf("a publication with nothing dirty rebuilt %d more components", got-3)
	}
	if v := e.view.Load(); v.Epoch != epoch+1 || len(v.Campaigns) != 303 {
		t.Errorf("epoch %d after %d, %d campaigns", v.Epoch, epoch, len(v.Campaigns))
	}
}

// TestProbeUpdateRepricesOneCampaign counts calls through the collect seam: a
// probe completion re-prices the campaign that owns the wallet — one call per
// wallet of that campaign — and no other, and a completion for a wallet that
// groups nothing re-prices none; each publishes exactly once. The hook hands
// each completion to the collector goroutine, so the engine runs.
func TestProbeUpdateRepricesOneCampaign(t *testing.T) {
	prober := probe.New(probe.Config{Source: probe.NewDirectorySource(pool.NewDirectory(nil), time.Time{})})
	e, calls := costEngine(t, 500, prober)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Start(ctx)

	for _, tc := range []struct {
		wallet string
		want   int
	}{
		{costWallet(123), 1},
		{"4Amulti-b", 3},
		{costDonation, 0},
	} {
		before, epoch := *calls, e.CurrentView().Epoch
		e.onProbeUpdate(probe.Update{Wallet: tc.wallet, Activity: profit.WalletActivity{Wallet: tc.wallet, TotalXMR: 1}})
		if got := *calls - before; got != tc.want {
			t.Errorf("update for %s: %d collect calls, want %d", tc.wallet, got, tc.want)
		}
		if got := e.CurrentView().Epoch; got != epoch+1 {
			t.Errorf("update for %s: epoch %d after %d", tc.wallet, got, epoch)
		}
	}
	// A wallet the dataset has not seen publishes nothing.
	epoch := e.CurrentView().Epoch
	e.onProbeUpdate(probe.Update{Wallet: "4Aunseen"})
	if got := e.CurrentView().Epoch; got != epoch {
		t.Errorf("update for an unseen wallet published epoch %d", got)
	}
}
