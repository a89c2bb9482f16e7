// Package intervention models the countermeasures discussed in §VI of the
// paper and measures their effect on campaign earnings:
//
//   - reporting illicit wallets to pool operators, who may ban them
//     (cooperative pools) or not (non-cooperative pools), with the caveat
//     that proxy-fronted wallets evade connection-count-based ban policies;
//   - changes in the Proof-of-Work algorithm, which invalidate shares from
//     miners that are not updated and therefore kill campaigns whose
//     operators do not maintain their botnets.
//
// The functions here operate on the pool simulator and on campaign payment
// histories, so the same experiments the paper performed live (report
// wallets → observe the campaign move pools; monitor three forks → count
// die-offs) can be replayed deterministically and benchmarked.
package intervention

import (
	"sort"
	"time"

	"cryptomining/internal/pool"
)

// ReportOutcome describes the result of reporting one wallet to one pool.
type ReportOutcome struct {
	Pool   string
	Wallet string
	// Banned reports whether the pool acted on the report.
	Banned bool
	// Reason explains why a cooperative pool declined to ban.
	Reason string
	// DistinctIPs is the connection evidence the pool consulted.
	DistinctIPs int
	// PaidBeforeBan is the amount already paid to the wallet.
	PaidBeforeBan float64
}

// PoolCooperation describes how a pool responds to abuse reports, mirroring
// the behaviours the authors encountered: non-cooperative pools ignore
// reports; cooperative pools err on the safe side and only ban wallets whose
// connection counts clearly indicate a botnet.
type PoolCooperation struct {
	// Cooperative pools act on reports at all.
	Cooperative bool
	// MinIPsToBan is the minimum number of distinct source IPs a cooperative
	// pool requires before banning a reported wallet.
	MinIPsToBan int
}

// DefaultCooperation approximates the paper's experience: cooperative, but
// only banning wallets with a large number of connections.
func DefaultCooperation() PoolCooperation {
	return PoolCooperation{Cooperative: true, MinIPsToBan: 100}
}

// ReportWalletsTo reports a set of wallets to an explicit pool set, with a
// per-pool cooperation policy — the shape live what-if scenarios take, where
// each operator reacts differently to the same abuse report. coopFor is
// consulted once per pool by name; a nil coopFor applies DefaultCooperation
// everywhere.
func ReportWalletsTo(pools []*pool.Pool, wallets []string, coopFor func(poolName string) PoolCooperation, at time.Time) []ReportOutcome {
	if coopFor == nil {
		coopFor = func(string) PoolCooperation { return DefaultCooperation() }
	}
	var out []ReportOutcome
	for _, p := range pools {
		coop := coopFor(p.Name)
		for _, w := range wallets {
			paid := p.TotalPaid(w)
			ips := p.DistinctIPs(w)
			if paid == 0 && ips == 0 {
				continue // the pool has never seen this wallet
			}
			o := ReportOutcome{Pool: p.Name, Wallet: w, DistinctIPs: ips, PaidBeforeBan: paid}
			switch {
			case !coop.Cooperative:
				o.Reason = "pool does not act on abuse reports"
			case ips < coop.MinIPsToBan:
				o.Reason = "connection count below the pool's botnet threshold (proxy suspected)"
			default:
				if err := p.BanWallet(w, at); err == nil {
					o.Banned = true
				} else {
					o.Reason = err.Error()
				}
			}
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pool != out[j].Pool {
			return out[i].Pool < out[j].Pool
		}
		return out[i].Wallet < out[j].Wallet
	})
	return out
}

// ForkDieOff summarizes the effect of one PoW change on a set of campaigns:
// how many campaigns that were receiving payments before the fork stopped
// receiving them afterwards (the ~72% / 89% / 96% figures of §VI).
type ForkDieOff struct {
	Fork          time.Time
	ActiveBefore  int
	ActiveAfter   int
	CeasedPercent float64
}

// CampaignPayments is the minimal view of a campaign the die-off analysis
// needs: its payment timestamps.
type CampaignPayments struct {
	CampaignID int
	Payments   []time.Time
}

// MeasureForkDieOffs computes the die-off at each fork: a campaign counts as
// active before the fork if it has a payment in the window [fork-window, fork)
// and as surviving if it has a payment in [fork, fork+window).
func MeasureForkDieOffs(campaigns []CampaignPayments, forks []time.Time, window time.Duration) []ForkDieOff {
	if window <= 0 {
		window = 90 * 24 * time.Hour
	}
	var out []ForkDieOff
	for _, fork := range forks {
		d := ForkDieOff{Fork: fork}
		for _, c := range campaigns {
			before, after := false, false
			for _, t := range c.Payments {
				if t.Before(fork) && t.After(fork.Add(-window)) {
					before = true
				}
				if !t.Before(fork) && t.Before(fork.Add(window)) {
					after = true
				}
			}
			if before {
				d.ActiveBefore++
				if after {
					d.ActiveAfter++
				}
			}
		}
		if d.ActiveBefore > 0 {
			d.CeasedPercent = 100 * float64(d.ActiveBefore-d.ActiveAfter) / float64(d.ActiveBefore)
		}
		out = append(out, d)
	}
	return out
}
