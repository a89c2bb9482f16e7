package pow

import (
	"testing"
	"time"
)

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

func TestForkDates(t *testing.T) {
	forks := ForkDates(MoneroEpochs)
	if len(forks) != 3 {
		t.Fatalf("forks = %d, want 3", len(forks))
	}
	want := []time.Time{date(2018, 4, 6), date(2018, 10, 18), date(2019, 3, 9)}
	for i, w := range want {
		if !forks[i].Equal(w) {
			t.Errorf("fork[%d] = %v, want %v", i, forks[i], w)
		}
	}
	if got := ForkDates(nil); got != nil {
		t.Errorf("ForkDates(nil) = %v", got)
	}
	if got := ForkDates(MoneroEpochs[:1]); got != nil {
		t.Errorf("ForkDates(single epoch) = %v", got)
	}
}

func TestAlgorithmAt(t *testing.T) {
	tests := []struct {
		t    time.Time
		want string
	}{
		{date(2013, 1, 1), "cryptonight"}, // before launch: first algorithm
		{date(2016, 6, 1), "cryptonight"},
		{date(2018, 4, 5), "cryptonight"},
		{date(2018, 4, 6), "cryptonight-v7"},
		{date(2018, 10, 17), "cryptonight-v7"},
		{date(2018, 10, 18), "cryptonight-v8"},
		{date(2019, 3, 9), "cryptonight-r"},
		{date(2019, 4, 30), "cryptonight-r"},
	}
	for _, tt := range tests {
		if got := AlgorithmAt(MoneroEpochs, tt.t); got != tt.want {
			t.Errorf("AlgorithmAt(%v) = %q, want %q", tt.t, got, tt.want)
		}
	}
	if got := AlgorithmAt(nil, date(2018, 1, 1)); got != "" {
		t.Errorf("AlgorithmAt(no epochs) = %q", got)
	}
}

func TestIsValidShare(t *testing.T) {
	// A miner built for the original algorithm stops being valid at the
	// April 2018 fork — the mechanism behind the die-offs of Table XI.
	if !IsValidShare(MoneroEpochs, "cryptonight", date(2018, 3, 1)) {
		t.Error("pre-fork share from cryptonight miner should be valid")
	}
	if IsValidShare(MoneroEpochs, "cryptonight", date(2018, 5, 1)) {
		t.Error("post-fork share from outdated miner should be invalid")
	}
	if !IsValidShare(MoneroEpochs, "cryptonight-v7", date(2018, 5, 1)) {
		t.Error("updated miner should be valid after the fork")
	}
	if IsValidShare(MoneroEpochs, "", date(2018, 5, 1)) {
		t.Error("empty algorithm should never be valid")
	}
}

func TestBlockRewardDecaysToTail(t *testing.T) {
	n := NewMoneroNetwork()
	early := n.BlockReward(date(2014, 6, 1))
	mid := n.BlockReward(date(2017, 1, 1))
	late := n.BlockReward(date(2030, 1, 1))
	if early <= mid || mid <= late {
		t.Errorf("reward should decay: %v, %v, %v", early, mid, late)
	}
	if late != n.TailEmission {
		t.Errorf("far-future reward = %v, want tail emission %v", late, n.TailEmission)
	}
	if early > n.InitialReward {
		t.Errorf("early reward %v should not exceed initial reward %v", early, n.InitialReward)
	}
}

func TestCirculatingSupplyMonotonic(t *testing.T) {
	n := NewMoneroNetwork()
	prev := 0.0
	for year := 2014; year <= 2022; year++ {
		s := n.CirculatingSupply(date(year, 12, 31))
		if s < prev {
			t.Fatalf("supply decreased at %d: %v < %v", year, s, prev)
		}
		prev = s
	}
	if n.CirculatingSupply(date(2013, 1, 1)) != 0 {
		t.Error("supply before launch should be 0")
	}
}

func TestCirculatingSupplyOrderOfMagnitude(t *testing.T) {
	// Real Monero circulation in April 2019 was ~17M XMR; the model should
	// land within a factor of ~2 so the "share of circulation" experiment is
	// meaningful.
	n := NewMoneroNetwork()
	supply := n.CirculatingSupply(date(2019, 4, 30))
	if supply < 8e6 || supply > 35e6 {
		t.Errorf("April 2019 supply = %v, want within [8M, 35M]", supply)
	}
}

func TestNetworkHashrateGrows(t *testing.T) {
	n := NewMoneroNetwork()
	h2015 := n.NetworkHashrate(date(2015, 1, 1))
	h2018 := n.NetworkHashrate(date(2018, 1, 1))
	if h2018 <= h2015 {
		t.Errorf("hashrate should grow: 2015=%v 2018=%v", h2015, h2018)
	}
}

func TestExpectedRewardPerHashPositiveAndTiny(t *testing.T) {
	n := NewMoneroNetwork()
	r := n.ExpectedRewardPerHash(date(2018, 1, 1))
	if r <= 0 || r > 1e-6 {
		t.Errorf("reward per hash = %v, want tiny positive value", r)
	}
}

func TestExpectedReward(t *testing.T) {
	n := NewMoneroNetwork()
	at := date(2017, 6, 1)
	// A 2000-bot botnet mining for 30 days, priced the way the pool
	// simulator credits shares: hashes times the expected reward per hash.
	hashes := 2000 * TypicalVictimHashrate * (30 * 24 * time.Hour).Seconds()
	reward := hashes * n.ExpectedRewardPerHash(at)
	// A medium-sized botnet mining for a month in 2017 should earn a
	// non-trivial but not absurd amount (order 10-10000 XMR).
	if reward < 1 || reward > 1e5 {
		t.Errorf("2000-bot monthly reward = %v XMR, outside plausible range", reward)
	}
}

func TestAlgorithmAtUnsortedEpochs(t *testing.T) {
	// Epochs given out of order must still resolve correctly.
	shuffled := []Epoch{MoneroEpochs[2], MoneroEpochs[0], MoneroEpochs[3], MoneroEpochs[1]}
	if got := AlgorithmAt(shuffled, date(2018, 6, 1)); got != "cryptonight-v7" {
		t.Errorf("AlgorithmAt(unsorted) = %q, want cryptonight-v7", got)
	}
}

func BenchmarkCirculatingSupply(b *testing.B) {
	n := NewMoneroNetwork()
	at := date(2019, 4, 30)
	for i := 0; i < b.N; i++ {
		n.CirculatingSupply(at)
	}
}
