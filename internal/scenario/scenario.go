// Package scenario is the live what-if intervention engine: it forks a
// running stream.Engine's exported state into an isolated shadow replay,
// applies a typed document of timestamped interventions (pool wallet bans
// with per-pool cooperation, wallet seizures, AV signature rollouts, PoW
// fork events) against the shadow's own forked pool ledgers, and reports
// baseline-vs-scenario deltas — campaign earnings, the ecosystem priced-XMR
// series and per-campaign timelines — computed from the shadow's private
// timeseries store.
//
// The shadow shares nothing mutable with the live engine: it gets a forked
// pool directory (pool.Directory.Fork copies every ledger structurally), its
// own collector, aggregator and timeseries store (restored from the live
// engine's in-memory EngineState, whose aggregator inputs keep their
// resolved enrichment), no prober, no metrics registry and no WAL. Running
// a scenario therefore leaves the live collector, the published views and
// any persisted checkpoint byte-identical to a scenario-free run — the
// isolation property the §VI counterfactuals depend on.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Kind names one intervention type of the scenario grammar.
type Kind string

const (
	// KindPoolBan reports wallets to pool operators, who ban them (and
	// retract earnings from the ban instant) subject to their cooperation
	// policy — the §VI.A responsible-disclosure experiment.
	KindPoolBan Kind = "pool_ban"
	// KindWalletSeizure removes wallets' earnings from every pool from the
	// given instant, regardless of pool cooperation — the upper bound on
	// what a coordinated takedown could achieve.
	KindWalletSeizure Kind = "wallet_seizure"
	// KindAVRollout models a detection-signature rollout: campaigns whose
	// attributed families match lose their earnings from the rollout
	// instant (their droppers stop landing on new victims and the botnet
	// decays).
	KindAVRollout Kind = "av_rollout"
	// KindPowFork models a proof-of-work algorithm change: campaigns whose
	// payment history shows no cross-epoch maintenance are assumed to die
	// at the fork, and their wallets stop earning — the §VI.B die-off.
	KindPowFork Kind = "pow_fork"
)

// Cooperation mirrors intervention.PoolCooperation at the document layer.
type Cooperation struct {
	Cooperative bool
	MinIPsToBan int
}

// Intervention is one timestamped action of a scenario document.
type Intervention struct {
	Kind Kind
	// At is the intervention instant on the *data* time axis: the ledger
	// cutoff from which earnings are removed. Interventions are applied in
	// At order.
	At time.Time
	// Wallets targets specific wallets (required for wallet_seizure;
	// optional for pool_ban, which defaults to every wallet the dataset has
	// seen).
	Wallets []string
	// Pools restricts a pool_ban to the named pools (default: all).
	Pools []string
	// Cooperation overrides per-pool ban policies for a pool_ban, keyed by
	// pool name; the "*" entry is the default for unnamed pools. Empty maps
	// fall back to intervention.DefaultCooperation.
	Cooperation map[string]Cooperation
	// Families matches an av_rollout against campaign attribution
	// (PPI botnets, stock tools, known operations), case-insensitively.
	Families []string
	// MaintainedCampaigns optionally marks campaign IDs that survive a
	// pow_fork regardless of what their payment history suggests.
	MaintainedCampaigns []int
}

// Document is a typed what-if scenario: a name and an ordered set of
// interventions replayed against a shadow fork of the live engine.
type Document struct {
	Name        string
	Description string
	// Interventions are applied in ascending At order.
	Interventions []Intervention
}

// ErrEmptyDocument rejects documents with no interventions.
var ErrEmptyDocument = errors.New("scenario: document has no interventions")

// Validate checks the document against the scenario grammar. It returns the
// first violation found, with enough context to fix the document.
func (d *Document) Validate() error {
	if len(d.Interventions) == 0 {
		return ErrEmptyDocument
	}
	for i, iv := range d.Interventions {
		prefix := fmt.Sprintf("scenario: intervention %d (%s)", i, iv.Kind)
		switch iv.Kind {
		case KindPoolBan:
			// All-seen-wallets and all-pools defaults are both valid.
		case KindWalletSeizure:
			if len(iv.Wallets) == 0 {
				return fmt.Errorf("%s: requires at least one wallet", prefix)
			}
		case KindAVRollout:
			if len(iv.Families) == 0 {
				return fmt.Errorf("%s: requires at least one family", prefix)
			}
		case KindPowFork:
			// No operands required.
		default:
			return fmt.Errorf("scenario: intervention %d: unknown kind %q (known: %s)",
				i, iv.Kind, strings.Join([]string{
					string(KindPoolBan), string(KindWalletSeizure),
					string(KindAVRollout), string(KindPowFork)}, ", "))
		}
		if iv.At.IsZero() {
			return fmt.Errorf("%s: missing intervention time", prefix)
		}
		for _, w := range iv.Wallets {
			if strings.TrimSpace(w) == "" {
				return fmt.Errorf("%s: blank wallet identifier", prefix)
			}
		}
	}
	return nil
}

// ordered returns the interventions sorted by At (stable, so same-instant
// interventions keep document order).
func (d *Document) ordered() []Intervention {
	out := make([]Intervention, len(d.Interventions))
	copy(out, d.Interventions)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}
