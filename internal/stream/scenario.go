package stream

import (
	"errors"
	"sort"
)

// This file is the engine's seam for shadow scenario replays
// (internal/scenario): a forked engine — built from ExportState/RestoreState
// with its own forked pool directory — needs to re-price wallets after an
// intervention rewrites the forked ledgers. The live engine never calls
// these; the scenario runner calls them on its private shadow only.

// ErrScenarioProbed rejects scenario re-pricing on an engine wired to a live
// prober: re-pricing must read the forked pool ledgers synchronously, and a
// prober would race its own asynchronous updates against the replay.
var ErrScenarioProbed = errors.New("stream: scenario repricing requires a proberless engine")

// SeenWallets returns the distinct wallet identifiers observed across kept
// records, sorted. Scenario documents that target "all known wallets" expand
// against this set.
func (e *Engine) SeenWallets() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedTrueKeys(e.col.seenWallets)
}

// PrimeScenarioBaselines back-fills the per-wallet priced baselines for
// wallets that were priced on the synchronous keep path (which folds totals
// into the counters without recording a per-wallet baseline). After priming,
// a re-price of an unchanged wallet is an exact no-op delta, so the shadow's
// counters and series stay byte-identical to the live engine until an
// intervention actually changes a ledger. Wallets already baselined (probe
// reconciliation, restored checkpoints) are left untouched; counters and
// timeseries are not modified.
func (e *Engine) PrimeScenarioBaselines() error {
	if e.cfg.Prober != nil {
		return ErrScenarioProbed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, w := range sortedTrueKeys(e.col.seenWallets) {
		if _, done := e.col.pricedProfit[w]; done {
			continue
		}
		if _, donation := e.cfg.OSINT.IsDonationWallet(w); donation {
			continue
		}
		act := e.col.collect(w)
		e.col.pricedProfit[w] = pricedTotals{xmr: act.TotalXMR, usd: act.TotalUSD}
	}
	return nil
}

// RepriceScenarioWallets re-reads the given wallets' activity from the
// engine's pool directory and folds the deltas into the running counters,
// per-campaign timelines and ecosystem series, then republishes the view.
// Wallets the dataset has not seen are skipped. The recording instant is the
// scenario clock (Config.Timeseries.Clock) at call time, so interventions
// land on the replay's own time axis.
func (e *Engine) RepriceScenarioWallets(wallets []string) error {
	if e.cfg.Prober != nil {
		return ErrScenarioProbed
	}
	dedup := make(map[string]bool, len(wallets))
	for _, w := range wallets {
		dedup[w] = true
	}
	ordered := make([]string, 0, len(dedup))
	for w := range dedup {
		ordered = append(ordered, w)
	}
	sort.Strings(ordered)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ts != nil {
		e.col.now = e.cfg.Timeseries.Clock()
	}
	changed := false
	for _, w := range ordered {
		if !e.col.seenWallets[w] {
			continue
		}
		e.col.wallets.Invalidate(w)
		act := e.col.collect(w)
		e.col.applyProbedActivity(w, act)
		e.col.markWalletStale(w)
		changed = true
	}
	if changed {
		e.publishViewLocked()
	}
	return nil
}
