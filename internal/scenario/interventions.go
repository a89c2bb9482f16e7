package scenario

import (
	"fmt"
	"sort"
	"time"

	"cryptomining/internal/intervention"
	"cryptomining/internal/pool"
	"cryptomining/internal/pow"
	"cryptomining/internal/stream"
)

// apply mutates the forked ledgers for one intervention and reports which
// wallets changed; the caller then re-prices exactly those wallets on the
// shadow engine. baseView is the pre-intervention campaign listing — family
// matching and fork-survival run against what the measurement knew, not
// against already-intervened figures.
func apply(shadow *stream.Engine, forked *pool.Directory, baseView *stream.View, iv Intervention) (AppliedIntervention, error) {
	out := AppliedIntervention{Kind: iv.Kind, At: iv.At}
	switch iv.Kind {
	case KindPoolBan:
		return applyPoolBan(shadow, forked, iv)
	case KindWalletSeizure:
		out.AffectedWallets, out.RemovedXMR = retractFromAll(forked, iv.Wallets, iv.At)
		return out, nil
	case KindAVRollout:
		fams := normalizeFamilies(iv.Families)
		var wallets []string
		for _, c := range baseView.Campaigns {
			d, ok := baseView.Detail(c.ID)
			if !ok || !campaignMatchesFamilies(d, fams) {
				continue
			}
			out.CeasedCampaigns = append(out.CeasedCampaigns, c.ID)
			wallets = append(wallets, c.Wallets...)
		}
		sort.Ints(out.CeasedCampaigns)
		out.AffectedWallets, out.RemovedXMR = retractFromAll(forked, wallets, iv.At)
		return out, nil
	case KindPowFork:
		maintained := make(map[int]bool, len(iv.MaintainedCampaigns))
		for _, id := range iv.MaintainedCampaigns {
			maintained[id] = true
		}
		var wallets []string
		for _, c := range baseView.Campaigns {
			if maintained[c.ID] {
				continue
			}
			payments := walletPaymentTimes(forked, c.Wallets, iv.At)
			if maintainedAcrossForks(pow.MoneroEpochs, payments, iv.At) {
				continue
			}
			out.CeasedCampaigns = append(out.CeasedCampaigns, c.ID)
			wallets = append(wallets, c.Wallets...)
		}
		sort.Ints(out.CeasedCampaigns)
		out.AffectedWallets, out.RemovedXMR = retractFromAll(forked, wallets, iv.At)
		return out, nil
	default:
		return out, fmt.Errorf("scenario: unknown intervention kind %q", iv.Kind)
	}
}

// applyPoolBan runs the abuse-report experiment against the forked pools:
// each selected pool consults its cooperation policy, bans what it agrees
// to, and banned wallets lose their earnings at that pool from the report
// instant.
func applyPoolBan(shadow *stream.Engine, forked *pool.Directory, iv Intervention) (AppliedIntervention, error) {
	out := AppliedIntervention{Kind: iv.Kind, At: iv.At}
	pools := forked.Pools()
	if len(iv.Pools) > 0 {
		pools = pools[:0:0]
		for _, name := range iv.Pools {
			p, ok := forked.Get(name)
			if !ok {
				return out, fmt.Errorf("scenario: pool_ban names unknown pool %q", name)
			}
			pools = append(pools, p)
		}
	}
	wallets := iv.Wallets
	if len(wallets) == 0 {
		wallets = shadow.SeenWallets()
	}
	coopFor := func(name string) intervention.PoolCooperation {
		if c, ok := iv.Cooperation[name]; ok {
			return intervention.PoolCooperation{Cooperative: c.Cooperative, MinIPsToBan: c.MinIPsToBan}
		}
		if c, ok := iv.Cooperation["*"]; ok {
			return intervention.PoolCooperation{Cooperative: c.Cooperative, MinIPsToBan: c.MinIPsToBan}
		}
		return intervention.DefaultCooperation()
	}
	out.Outcomes = intervention.ReportWalletsTo(pools, wallets, coopFor, iv.At)

	affected := map[string]bool{}
	for _, o := range out.Outcomes {
		if !o.Banned {
			continue
		}
		p, ok := forked.Get(o.Pool)
		if !ok {
			continue
		}
		ret := p.RetractEarningsFrom(o.Wallet, iv.At)
		out.RemovedXMR += ret.RemovedXMR
		affected[o.Wallet] = true
	}
	out.AffectedWallets = sortedSet(affected)
	return out, nil
}

// retractFromAll removes the wallets' earnings from every forked pool from
// the cutoff, returning the wallets that actually changed and the total
// retracted.
func retractFromAll(forked *pool.Directory, wallets []string, at time.Time) ([]string, float64) {
	affected := map[string]bool{}
	var removed float64
	for _, p := range forked.Pools() {
		for _, w := range wallets {
			ret := p.RetractEarningsFrom(w, at)
			if ret.Known {
				removed += ret.RemovedXMR
				affected[w] = true
			}
		}
	}
	return sortedSet(affected), removed
}

// walletPaymentTimes merges the wallets' payment timestamps before the
// cutoff across every forked pool.
func walletPaymentTimes(forked *pool.Directory, wallets []string, cutoff time.Time) []time.Time {
	var out []time.Time
	for _, p := range forked.Pools() {
		for _, w := range wallets {
			st, err := p.Stats(w, cutoff)
			if err != nil {
				continue
			}
			for _, pay := range st.Payments {
				out = append(out, pay.Timestamp)
			}
		}
	}
	return out
}

func sortedSet(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
