// Package pool simulates cryptocurrency mining pools.
//
// The pools are the measurement's vantage point: the paper estimates campaign
// profits by querying public pool APIs for the total amount paid to each
// wallet extracted from malware, together with payment history, last share
// time and hashrate (Table II). This package provides:
//
//   - an accounting engine that credits mining work to wallet identifiers,
//     converts hashes to expected rewards using the pow network model, pays
//     out above a threshold, and enforces ban policies (e.g. banning wallets
//     mined from too many distinct IPs — the botnet indicator real pools act
//     on);
//   - a Stratum (TCP) server front-end so miners/proxies can mine over the
//     real protocol;
//   - an HTTP JSON stats API mirroring the public endpoints of transparent
//     pools (crypto-pool, dwarfpool, minexmr, ...), with opaque pools
//     (minergate) simply not exposing it;
//   - a Directory of the well-known Monero pools used throughout the paper.
package pool

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/pow"
)

// Errors returned by the accounting engine.
var (
	ErrBanned       = errors.New("pool: wallet is banned")
	ErrStaleAlgo    = errors.New("pool: share computed with outdated PoW algorithm")
	ErrUnknownUser  = errors.New("pool: unknown wallet")
	ErrOpaquePool   = errors.New("pool: pool does not expose public statistics")
	ErrInvalidInput = errors.New("pool: invalid input")
)

// Policy configures a pool's behaviour.
type Policy struct {
	// Transparent pools expose public per-wallet statistics; opaque pools
	// (minergate) do not.
	Transparent bool
	// PaymentThreshold is the minimum balance (XMR) before a payout is sent.
	PaymentThreshold float64
	// BanIPThreshold bans a wallet once it has been seen mining from more
	// than this many distinct IPs (0 disables the policy). Real pools only
	// ban on clear botnet-like behaviour, which is why proxies work.
	BanIPThreshold int
	// ProvidesPaymentHistory controls whether the stats API lists individual
	// payments (some pools only expose the total paid).
	ProvidesPaymentHistory bool
	// ProvidesHistoricHashrate controls whether the stats API exposes the
	// historical hashrate series (the paper only has this for minexmr).
	ProvidesHistoricHashrate bool
	// EnforceAlgorithm rejects shares computed with an outdated PoW
	// algorithm (all real pools do after a fork).
	EnforceAlgorithm bool
}

// DefaultPolicy is a transparent pool with a 0.3 XMR payout threshold that
// bans blatant botnets (>1000 source IPs) and enforces the PoW algorithm.
func DefaultPolicy() Policy {
	return Policy{
		Transparent:            true,
		PaymentThreshold:       0.3,
		BanIPThreshold:         1000,
		ProvidesPaymentHistory: true,
		EnforceAlgorithm:       true,
	}
}

// walletAccount is the pool-side per-identifier ledger.
type walletAccount struct {
	user        string
	hashes      uint64
	lastShare   time.Time
	firstShare  time.Time
	balance     float64
	totalPaid   float64
	payments    []model.Payment
	hashrate    float64
	historic    []model.HashratePoint
	ips         map[string]struct{}
	banned      bool
	bannedAt    time.Time
	connections int
}

// Pool is one simulated mining pool.
type Pool struct {
	// Name is the normalized pool name ("minexmr", "crypto-pool", ...).
	Name string
	// Domains are the DNS names the pool is reachable at.
	Domains []string
	// Currency the pool mines (XMR for all pools in the study's focus).
	Currency model.Currency
	// Policy configures payouts, transparency and banning.
	Policy Policy

	network *pow.Network
	mu      sync.Mutex
	wallets map[string]*walletAccount
}

// New creates a pool backed by the given PoW network model. A nil network
// uses the default Monero model.
func New(name string, domains []string, currency model.Currency, policy Policy, network *pow.Network) *Pool {
	if network == nil {
		network = pow.NewMoneroNetwork()
	}
	return &Pool{
		Name:     name,
		Domains:  append([]string(nil), domains...),
		Currency: currency,
		Policy:   policy,
		network:  network,
		wallets:  make(map[string]*walletAccount),
	}
}

func (p *Pool) account(user string) *walletAccount {
	acct, ok := p.wallets[user]
	if !ok {
		acct = &walletAccount{user: user, ips: make(map[string]struct{})}
		p.wallets[user] = acct
	}
	return acct
}

// RegisterConnection records a login from the given source IP. Returns
// ErrBanned when the wallet is banned.
func (p *Pool) RegisterConnection(user, ip string) error {
	if user == "" {
		return ErrInvalidInput
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	acct := p.account(user)
	if acct.banned {
		return ErrBanned
	}
	if ip != "" {
		acct.ips[ip] = struct{}{}
	}
	acct.connections++
	p.maybeBanLocked(acct, time.Time{})
	if acct.banned {
		return ErrBanned
	}
	return nil
}

func (p *Pool) maybeBanLocked(acct *walletAccount, at time.Time) {
	if p.Policy.BanIPThreshold > 0 && len(acct.ips) > p.Policy.BanIPThreshold && !acct.banned {
		acct.banned = true
		if at.IsZero() {
			at = acct.lastShare
		}
		acct.bannedAt = at
	}
}

// Credit records mining work performed by a wallet: `hashes` hashes submitted
// from `ip` at time `at`, computed with `algo`. It converts the work into an
// expected reward, updates hashrate statistics and triggers a payout when the
// balance crosses the payment threshold.
func (p *Pool) Credit(user, ip string, hashes float64, algo string, at time.Time) error {
	if user == "" || hashes < 0 {
		return ErrInvalidInput
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	acct := p.account(user)
	if acct.banned && !at.Before(acct.bannedAt) {
		return ErrBanned
	}
	if p.Policy.EnforceAlgorithm && !pow.IsValidShare(p.network.Epochs, algo, at) {
		// The miner is still burning victim CPU, but the shares are invalid
		// and no reward accrues (§VI of the paper).
		return ErrStaleAlgo
	}
	if ip != "" {
		acct.ips[ip] = struct{}{}
	}
	if acct.firstShare.IsZero() || at.Before(acct.firstShare) {
		acct.firstShare = at
	}
	if at.After(acct.lastShare) {
		acct.lastShare = at
	}
	acct.hashes += uint64(hashes)
	reward := hashes * p.network.ExpectedRewardPerHash(at)
	acct.balance += reward

	for p.Policy.PaymentThreshold > 0 && acct.balance >= p.Policy.PaymentThreshold {
		amount := acct.balance
		acct.balance = 0
		acct.totalPaid += amount
		acct.payments = append(acct.payments, model.Payment{
			Pool: p.Name, Wallet: user, Amount: amount, Timestamp: at,
		})
	}
	p.maybeBanLocked(acct, at)
	return nil
}

// SimulateMining credits a wallet with continuous mining at `hashrate` H/s from
// `from` to `to`, submitting in fixed intervals, sourced from `numIPs`
// distinct addresses (a proxy shows up as a single IP). algoFor maps a time to
// the algorithm the miner binary uses at that time (a nil algoFor always uses
// the network's current algorithm, i.e. a well-maintained miner).
// It returns the number of intervals whose shares were rejected (stale
// algorithm or ban).
func (p *Pool) SimulateMining(user string, numIPs int, hashrate float64, from, to time.Time, interval time.Duration, algoFor func(time.Time) string) int {
	if interval <= 0 {
		interval = 24 * time.Hour
	}
	if numIPs < 1 {
		numIPs = 1
	}
	rejected := 0
	ipIdx := 0
	for t := from; t.Before(to); t = t.Add(interval) {
		algo := pow.AlgorithmAt(p.network.Epochs, t)
		if algoFor != nil {
			algo = algoFor(t)
		}
		ip := fmt.Sprintf("10.%d.%d.%d", (ipIdx/65536)%256, (ipIdx/256)%256, ipIdx%256)
		ipIdx = (ipIdx + 1) % numIPs
		hashes := hashrate * interval.Seconds()
		if err := p.Credit(user, ip, hashes, algo, t); err != nil {
			rejected++
		}
		p.recordHashrate(user, hashrate, t)
	}
	return rejected
}

func (p *Pool) recordHashrate(user string, hashrate float64, at time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct := p.account(user)
	acct.hashrate = hashrate
	if p.Policy.ProvidesHistoricHashrate {
		acct.historic = append(acct.historic, model.HashratePoint{Timestamp: at, Hashrate: hashrate})
	}
}

// BanWallet manually bans a wallet at the given time — the intervention the
// authors performed when reporting illicit wallets to pool operators (§V).
func (p *Pool) BanWallet(user string, at time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.wallets[user]
	if !ok {
		return ErrUnknownUser
	}
	acct.banned = true
	acct.bannedAt = at
	return nil
}

// Retraction summarizes what RetractEarningsFrom removed from a ledger.
type Retraction struct {
	// Known reports whether the pool had an account for the wallet at all —
	// a known wallet is banned and clamped even when nothing was removed,
	// which still changes its activity status.
	Known bool
	// RemovedXMR is the sum of the removed payouts plus the zeroed balance.
	RemovedXMR float64
	// RemovedPayments counts the payout records dropped.
	RemovedPayments int
}

// RetractEarningsFrom rewrites a wallet's ledger as if the pool had banned it
// at `at`: every payout at or after that instant is removed from the payment
// history and the total paid, the unpaid balance is zeroed (it would never
// have been paid out), the last share is clamped to just before the ban, and
// the wallet is marked banned. This is the counterfactual primitive of the
// what-if scenario engine — Stats deliberately reports full history for a
// banned wallet (real pools keep serving past payouts), so measuring "what
// if the ban had happened at t" requires truncating the forked ledger, never
// a live one. A wallet the pool has never seen is a no-op: no account is
// created.
func (p *Pool) RetractEarningsFrom(user string, at time.Time) Retraction {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ret Retraction
	acct, ok := p.wallets[user]
	if !ok {
		return ret
	}
	ret.Known = true
	kept := acct.payments[:0]
	var keptPaid float64
	for _, pay := range acct.payments {
		if pay.Timestamp.Before(at) {
			kept = append(kept, pay)
			keptPaid += pay.Amount
			continue
		}
		ret.RemovedXMR += pay.Amount
		ret.RemovedPayments++
	}
	acct.payments = kept
	// Credit records every payout in the ledger even when the stats API hides
	// the history, so recomputing from the kept list is exact — subtracting
	// would leave float residue behind a "fully retracted" wallet.
	acct.totalPaid = keptPaid
	ret.RemovedXMR += acct.balance
	acct.balance = 0
	if acct.lastShare.After(at) || acct.lastShare.Equal(at) {
		acct.lastShare = at.Add(-time.Nanosecond)
	}
	trimmed := acct.historic[:0]
	for _, hp := range acct.historic {
		if hp.Timestamp.Before(at) {
			trimmed = append(trimmed, hp)
		}
	}
	acct.historic = trimmed
	acct.banned = true
	acct.bannedAt = at
	return ret
}

// IsBanned reports whether the wallet is banned. Only tests ask; the ban
// policy itself reads the account directly.
func (p *Pool) IsBanned(user string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.wallets[user]
	return ok && acct.banned
}

// DistinctIPs returns the number of distinct source IPs observed for a wallet
// (the statistic pool operators shared with the authors for the case studies).
func (p *Pool) DistinctIPs(user string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.wallets[user]
	if !ok {
		return 0
	}
	return len(acct.ips)
}

// Stats returns the public statistics for a wallet, honouring the pool's
// transparency policy. Opaque pools return ErrOpaquePool for every wallet;
// transparent pools return ErrUnknownUser for wallets they have never seen.
func (p *Pool) Stats(user string, queriedAt time.Time) (model.WalletStats, error) {
	if !p.Policy.Transparent {
		return model.WalletStats{}, ErrOpaquePool
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.wallets[user]
	if !ok {
		return model.WalletStats{}, ErrUnknownUser
	}
	st := model.WalletStats{
		Pool:        p.Name,
		User:        user,
		Hashes:      acct.hashes,
		Hashrate:    acct.hashrate,
		LastShare:   acct.lastShare,
		Balance:     acct.balance,
		TotalPaid:   acct.totalPaid,
		NumPayments: len(acct.payments),
		DateQuery:   queriedAt,
		Banned:      acct.banned,
		BannedAt:    acct.bannedAt,
	}
	if p.Policy.ProvidesPaymentHistory {
		st.Payments = append(st.Payments, acct.payments...)
	}
	if p.Policy.ProvidesHistoricHashrate {
		st.HistoricHashrate = append(st.HistoricHashrate, acct.historic...)
	}
	return st, nil
}

// Wallets returns every wallet identifier the pool has seen, sorted.
func (p *Pool) Wallets() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.wallets))
	for w := range p.wallets {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// TotalPaid returns the total amount (in the pool's currency) paid to a wallet.
func (p *Pool) TotalPaid(user string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	acct, ok := p.wallets[user]
	if !ok {
		return 0
	}
	return acct.totalPaid
}

// TotalPaidAll returns the total amount paid across all wallets.
func (p *Pool) TotalPaidAll() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum float64
	for _, acct := range p.wallets {
		sum += acct.totalPaid
	}
	return sum
}

// MarshalSnapshot serializes the pool's ledger (used by cmd tools to persist
// a generated ecosystem).
func (p *Pool) MarshalSnapshot() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := snapshot{Name: p.Name, Currency: string(p.Currency)}
	for _, w := range p.wallets {
		ips := make([]string, 0, len(w.ips))
		for ip := range w.ips {
			ips = append(ips, ip)
		}
		sort.Strings(ips)
		snap.Wallets = append(snap.Wallets, walletSnapshot{
			User: w.user, Hashes: w.hashes, LastShare: w.lastShare, FirstShare: w.firstShare,
			Balance: w.balance, TotalPaid: w.totalPaid, Payments: w.payments,
			Hashrate: w.hashrate, Historic: w.historic, IPs: ips,
			Banned: w.banned, BannedAt: w.bannedAt,
		})
	}
	sort.Slice(snap.Wallets, func(i, j int) bool { return snap.Wallets[i].User < snap.Wallets[j].User })
	return json.MarshalIndent(&snap, "", " ")
}

// UnmarshalSnapshot restores a ledger previously produced by MarshalSnapshot.
func (p *Pool) UnmarshalSnapshot(data []byte) error {
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wallets = make(map[string]*walletAccount, len(snap.Wallets))
	for _, w := range snap.Wallets {
		acct := &walletAccount{
			user: w.User, hashes: w.Hashes, lastShare: w.LastShare, firstShare: w.FirstShare,
			balance: w.Balance, totalPaid: w.TotalPaid, payments: w.Payments,
			hashrate: w.Hashrate, historic: w.Historic,
			ips: make(map[string]struct{}, len(w.IPs)), banned: w.Banned, bannedAt: w.BannedAt,
		}
		for _, ip := range w.IPs {
			acct.ips[ip] = struct{}{}
		}
		p.wallets[w.User] = acct
	}
	return nil
}

type snapshot struct {
	Name     string           `json:"name"`
	Currency string           `json:"currency"`
	Wallets  []walletSnapshot `json:"wallets"`
}

type walletSnapshot struct {
	User       string                `json:"user"`
	Hashes     uint64                `json:"hashes"`
	LastShare  time.Time             `json:"last_share"`
	FirstShare time.Time             `json:"first_share"`
	Balance    float64               `json:"balance"`
	TotalPaid  float64               `json:"total_paid"`
	Payments   []model.Payment       `json:"payments,omitempty"`
	Hashrate   float64               `json:"hashrate"`
	Historic   []model.HashratePoint `json:"historic,omitempty"`
	IPs        []string              `json:"ips,omitempty"`
	Banned     bool                  `json:"banned,omitempty"`
	BannedAt   time.Time             `json:"banned_at,omitempty"`
}
