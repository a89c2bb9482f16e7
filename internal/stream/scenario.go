package stream

import (
	"errors"
	"slices"
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

// PrimeScenarioBaselines back-fills a per-wallet priced baseline for every
// seen wallet that has none yet — one whose probe had not landed when the
// live state was exported, or one restored from a checkpoint written before
// the synchronous keep path recorded baselines. Every wallet priced on either
// path already has one and is left untouched. After priming, a re-price of an
// unchanged wallet is an exact no-op delta, so the shadow's counters and
// series stay byte-identical to the live engine until an intervention
// actually changes a ledger; counters and timeseries are not modified.
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
// scenario clock (Config.Clock) at call time, so interventions
// land on the replay's own time axis.
func (e *Engine) RepriceScenarioWallets(wallets []string) error {
	if e.cfg.Prober != nil {
		return ErrScenarioProbed
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.col.now = e.cfg.Clock()
	changed := false
	for _, w := range slices.Compact(slices.Sorted(slices.Values(wallets))) {
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
