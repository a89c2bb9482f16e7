// Package pow models the proof-of-work environment that the profit analysis
// and the campaign-activity measurements depend on: a Monero-like emission
// schedule (used to estimate the share of circulating coins mined by
// malware), a network difficulty and block-reward model (used by the pool
// simulator to convert worker hashrate into expected rewards), and the
// algorithm-epoch timeline of the PoW changes the paper monitors
// (6 Apr 2018, 18 Oct 2018, 9 Mar 2019).
//
// This is intentionally a coarse model — the measurement pipeline needs the
// macroscopic quantities (coins in circulation, reward per hash, whether a
// given miner version produces valid shares after a fork), not the actual
// CryptoNight hash function.
package pow

import (
	"math"
	"sort"
	"time"
)

// Epoch is one PoW algorithm era. Miners built for an earlier algorithm stop
// producing valid shares once the next epoch begins, which is the mechanism
// behind the campaign die-offs of Table XI.
type Epoch struct {
	// Algorithm is the name of the PoW variant in force.
	Algorithm string
	// Start is when the algorithm activated (the fork date).
	Start time.Time
}

// MoneroEpochs is the algorithm timeline relevant to the study period,
// including the three forks the paper monitors.
var MoneroEpochs = []Epoch{
	{Algorithm: "cryptonight", Start: time.Date(2014, 4, 18, 0, 0, 0, 0, time.UTC)},
	{Algorithm: "cryptonight-v7", Start: time.Date(2018, 4, 6, 0, 0, 0, 0, time.UTC)},
	{Algorithm: "cryptonight-v8", Start: time.Date(2018, 10, 18, 0, 0, 0, 0, time.UTC)},
	{Algorithm: "cryptonight-r", Start: time.Date(2019, 3, 9, 0, 0, 0, 0, time.UTC)},
}

// ForkDates returns the fork activation dates after the first epoch, i.e. the
// dates at which previously-built miners become stale.
func ForkDates(epochs []Epoch) []time.Time {
	if len(epochs) <= 1 {
		return nil
	}
	out := make([]time.Time, 0, len(epochs)-1)
	for _, e := range epochs[1:] {
		out = append(out, e.Start)
	}
	return out
}

// AlgorithmAt returns the algorithm in force at time t. Times before the first
// epoch return the first algorithm.
func AlgorithmAt(epochs []Epoch, t time.Time) string {
	if len(epochs) == 0 {
		return ""
	}
	sorted := append([]Epoch(nil), epochs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	cur := sorted[0].Algorithm
	for _, e := range sorted {
		if t.Before(e.Start) {
			break
		}
		cur = e.Algorithm
	}
	return cur
}

// IsValidShare reports whether a miner built for minerAlgo produces acceptable
// shares at time t: the miner's algorithm must match the network algorithm.
func IsValidShare(epochs []Epoch, minerAlgo string, t time.Time) bool {
	return minerAlgo != "" && AlgorithmAt(epochs, t) == minerAlgo
}

// Network models the coarse Monero network parameters.
type Network struct {
	// Epochs is the PoW algorithm timeline.
	Epochs []Epoch
	// BlockTime is the target seconds between blocks (120 for Monero).
	BlockTime float64
	// Launch is the chain launch date (emission starts here).
	Launch time.Time
	// TailEmission is the fixed block reward after the main emission curve
	// (0.6 XMR for Monero).
	TailEmission float64
	// InitialReward approximates the block reward at launch.
	InitialReward float64
	// EmissionSpeedFactor controls how fast the reward decays; Monero's main
	// curve halves the remaining supply roughly yearly in its early life.
	EmissionSpeedFactor float64
	// baseHashrate and hashrateGrowth parameterize the synthetic network
	// hashrate curve (hashes/second).
	baseHashrate   float64
	hashrateGrowth float64
}

// NewMoneroNetwork returns a network model with Monero-like constants.
func NewMoneroNetwork() *Network {
	return &Network{
		Epochs:              MoneroEpochs,
		BlockTime:           120,
		Launch:              time.Date(2014, 4, 18, 0, 0, 0, 0, time.UTC),
		TailEmission:        0.6,
		InitialReward:       17.6,
		EmissionSpeedFactor: 0.40, // fraction of remaining main emission paid per year
		baseHashrate:        5e6,  // ~5 MH/s in 2014
		hashrateGrowth:      1.05, // ~5 MH/s doubling roughly every 14 months
	}
}

// yearsSinceLaunch returns fractional years between launch and t, clamped at 0.
func (n *Network) yearsSinceLaunch(t time.Time) float64 {
	if t.Before(n.Launch) {
		return 0
	}
	return t.Sub(n.Launch).Hours() / (24 * 365.25)
}

// BlockReward returns the approximate block reward at time t: an exponentially
// decaying main emission with a floor at the tail emission.
func (n *Network) BlockReward(t time.Time) float64 {
	y := n.yearsSinceLaunch(t)
	r := n.InitialReward * math.Exp(-n.EmissionSpeedFactor*y)
	if r < n.TailEmission {
		return n.TailEmission
	}
	return r
}

// CirculatingSupply returns the approximate coins in circulation at time t by
// integrating the block reward curve. The paper's headline "4.4% of Monero in
// circulation" estimate divides total malware-attributed payouts by this
// quantity.
func (n *Network) CirculatingSupply(t time.Time) float64 {
	y := n.yearsSinceLaunch(t)
	if y <= 0 {
		return 0
	}
	blocksPerYear := (365.25 * 24 * 3600) / n.BlockTime
	// Integrate the decaying reward analytically, then add tail emission for
	// the period where the main curve is below the tail.
	// Main curve: R(t) = R0 * exp(-k t); integral = R0/k (1 - exp(-k y)).
	k := n.EmissionSpeedFactor
	mainCoins := n.InitialReward / k * (1 - math.Exp(-k*y)) * blocksPerYear
	// Tail emission kicks in when R(t) < tail.
	yTail := math.Log(n.InitialReward/n.TailEmission) / k
	if y > yTail {
		mainAtTail := n.InitialReward / k * (1 - math.Exp(-k*yTail)) * blocksPerYear
		tailCoins := n.TailEmission * blocksPerYear * (y - yTail)
		return mainAtTail + tailCoins
	}
	return mainCoins
}

// NetworkHashrate returns the approximate total network hashrate (H/s) at t,
// following a smooth exponential growth curve. Only the order of magnitude
// matters: it determines what share of block rewards a botnet of a given size
// can expect.
func (n *Network) NetworkHashrate(t time.Time) float64 {
	y := n.yearsSinceLaunch(t)
	return n.baseHashrate * math.Pow(2, y*n.hashrateGrowth)
}

// ExpectedRewardPerHash returns the expected XMR earned per hash submitted at
// time t: blockReward / (networkHashrate * blockTime).
func (n *Network) ExpectedRewardPerHash(t time.Time) float64 {
	hr := n.NetworkHashrate(t)
	if hr <= 0 {
		return 0
	}
	return n.BlockReward(t) / (hr * n.BlockTime)
}

// TypicalVictimHashrate is the hashrate (H/s) of one infected desktop-class
// machine running CryptoNight on CPU, used by the ecosystem simulator to size
// botnet earnings (a few hundred H/s was typical for the era).
const TypicalVictimHashrate = 250.0
