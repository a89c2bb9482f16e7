package ecosim

import (
	"bytes"
	"strings"
	"testing"

	"cryptomining/internal/spec"
)

func TestStreamDeterministicAcrossRuns(t *testing.T) {
	const n = 3000
	a := NewStream(StreamConfig{Seed: 7})
	b := NewStream(StreamConfig{Seed: 7})
	for i := 0; i < n; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.Sample.SHA256 != sb.Sample.SHA256 || !bytes.Equal(sa.Sample.Content, sb.Sample.Content) {
			t.Fatalf("sample %d diverged between same-seed streams", i)
		}
		if !sa.Sample.FirstSeen.Equal(sb.Sample.FirstSeen) || sa.CampaignID != sb.CampaignID {
			t.Fatalf("sample %d metadata diverged between same-seed streams", i)
		}
	}
	c := NewStream(StreamConfig{Seed: 8})
	if a.Next().Sample.SHA256 == c.Next().Sample.SHA256 {
		t.Fatalf("different seeds produced the same first sample")
	}
}

func TestStreamLedgerDoesNotPerturbEmission(t *testing.T) {
	const n = 2000
	plain := NewStream(StreamConfig{Seed: 11})
	ledger := NewStream(StreamConfig{Seed: 11, Ledger: true})
	for i := 0; i < n; i++ {
		sa, sb := plain.Next(), ledger.Next()
		if sa.Sample.SHA256 != sb.Sample.SHA256 {
			t.Fatalf("sample %d diverged once ledger simulation was enabled — "+
				"a ledger-side effect is consuming generator RNG", i)
		}
	}
	// The ledger run must actually have credited earnings somewhere.
	var paid float64
	for _, p := range ledger.Pools().Pools() {
		paid += p.TotalPaidAll()
	}
	if paid <= 0 {
		t.Fatalf("ledger mode simulated no mining")
	}
	if paidPlain := func() float64 {
		var v float64
		for _, p := range plain.Pools().Pools() {
			v += p.TotalPaidAll()
		}
		return v
	}(); paidPlain != 0 {
		t.Fatalf("plain mode touched the ledgers: %v XMR", paidPlain)
	}
}

func TestStreamBoundedWorkingSet(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 3, ActiveCampaigns: 16})
	for i := 0; i < 5000; i++ {
		s.Next()
		if got := len(s.active); got != 16 {
			t.Fatalf("working set drifted to %d campaigns after %d samples", got, i+1)
		}
	}
}

func TestStreamChurnPoolsAndWalletReuse(t *testing.T) {
	s := NewStream(StreamConfig{Seed: 5, Ledger: true})
	walletCampaigns := map[string]map[int]bool{}
	var churnSample bool
	for i := 0; i < 20000; i++ {
		out := s.Next()
		if out.CampaignID == 0 {
			continue
		}
		if b, ok := spec.Extract(out.Sample.Content); ok && b.Wallet != "" {
			set := walletCampaigns[b.Wallet]
			if set == nil {
				set = map[int]bool{}
				walletCampaigns[b.Wallet] = set
			}
			set[out.CampaignID] = true
		}
		if strings.Contains(string(out.Sample.Content), "churnpool-") {
			churnSample = true
		}
	}
	var reused int
	for _, set := range walletCampaigns {
		if len(set) > 1 {
			reused++
		}
	}
	if reused == 0 {
		t.Fatalf("no wallet was ever reused across campaigns over 20k samples")
	}
	var churn int
	for _, name := range s.Pools().Names() {
		if strings.HasPrefix(name, "churnpool-") {
			churn++
		}
	}
	if churn == 0 {
		t.Fatalf("no churn pools appeared over 20k samples")
	}
	if !churnSample {
		t.Fatalf("no sample ever pointed its miner at a churn pool")
	}
}
