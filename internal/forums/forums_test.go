package forums

import (
	"testing"
	"time"

	"cryptomining/internal/model"
)

func TestIsMiningThread(t *testing.T) {
	mining := Thread{Title: "[SELL] silent monero miner with proxy support"}
	if !IsMiningThread(mining) {
		t.Error("miner thread should be classified as mining")
	}
	notMining := Thread{Title: "selling fresh cc dumps", Body: "good prices"}
	if IsMiningThread(notMining) {
		t.Error("carding thread should not be classified as mining")
	}
}

func TestCurrenciesMentioned(t *testing.T) {
	th := Thread{Title: "best pool for monero xmr mining", Body: "also thinking about zcash"}
	got := CurrenciesMentioned(th)
	found := map[model.Currency]bool{}
	for _, c := range got {
		found[c] = true
	}
	if !found[model.CurrencyMonero] || !found[model.CurrencyZcash] {
		t.Errorf("CurrenciesMentioned = %v", got)
	}
	if found[model.CurrencyBitcoin] {
		t.Error("bitcoin should not be detected")
	}
	if got := CurrenciesMentioned(Thread{Title: "booter recommendations"}); len(got) != 0 {
		t.Errorf("non-crypto thread mentions = %v", got)
	}
}

func TestComputeTrendSmallCorpus(t *testing.T) {
	threads := []Thread{
		{Title: "bitcoin mining rig", Created: time.Date(2013, 3, 1, 0, 0, 0, 0, time.UTC)},
		{Title: "bitcoin miner for sale", Created: time.Date(2013, 5, 1, 0, 0, 0, 0, time.UTC)},
		{Title: "monero silent miner", Created: time.Date(2018, 2, 1, 0, 0, 0, 0, time.UTC)},
		{Title: "monero mining pool no ban", Created: time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)},
		{Title: "bitcoin mining still worth it?", Created: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)},
		{Title: "selling cc dumps", Created: time.Date(2018, 4, 2, 0, 0, 0, 0, time.UTC)}, // not mining
	}
	tr := ComputeTrend(threads)
	if tr.TotalByYear[2013] != 2 || tr.TotalByYear[2018] != 3 {
		t.Errorf("totals = %v", tr.TotalByYear)
	}
	if got := tr.Share(2013, model.CurrencyBitcoin); got != 1.0 {
		t.Errorf("2013 BTC share = %v, want 1.0", got)
	}
	if got := tr.Share(2018, model.CurrencyMonero); got < 0.6 || got > 0.7 {
		t.Errorf("2018 XMR share = %v, want 2/3", got)
	}
	if dominant(tr, 2013) != model.CurrencyBitcoin {
		t.Error("2013 dominant should be Bitcoin")
	}
	if dominant(tr, 2018) != model.CurrencyMonero {
		t.Error("2018 dominant should be Monero")
	}
	years := tr.Years()
	if len(years) != 2 || years[0] != 2013 || years[1] != 2018 {
		t.Errorf("Years = %v", years)
	}
	if tr.Share(2015, model.CurrencyMonero) != 0 {
		t.Error("missing year should have zero share")
	}
}

func TestGenerateCorpusShape(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	threads := Generate(cfg)
	wantYears := cfg.LastYear - cfg.FirstYear + 1
	if len(threads) != wantYears*cfg.ThreadsPerYear {
		t.Fatalf("generated %d threads, want %d", len(threads), wantYears*cfg.ThreadsPerYear)
	}
	for _, th := range threads {
		if th.Created.Year() < cfg.FirstYear || th.Created.Year() > cfg.LastYear {
			t.Fatalf("thread year %d outside range", th.Created.Year())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GeneratorConfig{Seed: 7, ThreadsPerYear: 50, FirstYear: 2014, LastYear: 2016})
	b := Generate(GeneratorConfig{Seed: 7, ThreadsPerYear: 50, FirstYear: 2014, LastYear: 2016})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].Title != b[i].Title || !a[i].Created.Equal(b[i].Created) {
			t.Fatalf("thread %d differs between runs", i)
		}
	}
}

func TestGeneratedTrendMatchesFigure1Shape(t *testing.T) {
	// The headline qualitative claims of Figure 1:
	//  - Bitcoin is the dominant discussed currency in 2012-2013.
	//  - Monero overtakes and is the most prevalent currency in 2018.
	//  - Monero's share rises monotonically (roughly) from 2014 to 2018.
	threads := Generate(DefaultGeneratorConfig())
	tr := ComputeTrend(threads)

	if got := dominant(tr, 2012); got != model.CurrencyBitcoin {
		t.Errorf("2012 dominant = %v, want Bitcoin", got)
	}
	if got := dominant(tr, 2013); got != model.CurrencyBitcoin {
		t.Errorf("2013 dominant = %v, want Bitcoin", got)
	}
	if got := dominant(tr, 2018); got != model.CurrencyMonero {
		t.Errorf("2018 dominant = %v, want Monero", got)
	}
	if tr.Share(2018, model.CurrencyMonero) <= tr.Share(2015, model.CurrencyMonero) {
		t.Error("Monero share should grow between 2015 and 2018")
	}
	if tr.Share(2018, model.CurrencyBitcoin) >= tr.Share(2012, model.CurrencyBitcoin) {
		t.Error("Bitcoin share should decline between 2012 and 2018")
	}
	// The 2013-2014 Litecoin/Dogecoin experimentation is visible.
	if tr.Share(2013, model.CurrencyDogecoin)+tr.Share(2014, model.CurrencyDogecoin) <=
		tr.Share(2017, model.CurrencyDogecoin)+tr.Share(2018, model.CurrencyDogecoin) {
		t.Error("Dogecoin discussion should peak around 2013-2014")
	}
}

func TestGenerateConfigEdgeCases(t *testing.T) {
	// Inverted years are swapped, non-positive thread count defaults.
	threads := Generate(GeneratorConfig{Seed: 1, ThreadsPerYear: 0, FirstYear: 2016, LastYear: 2015})
	if len(threads) == 0 {
		t.Fatal("generator should still produce threads with defaulted config")
	}
	years := map[int]bool{}
	for _, th := range threads {
		years[th.Created.Year()] = true
	}
	if !years[2015] || !years[2016] {
		t.Errorf("years covered = %v", years)
	}
}

func BenchmarkComputeTrend(b *testing.B) {
	threads := Generate(DefaultGeneratorConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeTrend(threads)
	}
}

// dominant is the tracked currency with the largest share in a year.
func dominant(tr *Trend, year int) model.Currency {
	best, bestShare := model.CurrencyUnknown, -1.0
	for _, c := range TrackedCurrencies() {
		if s := tr.Share(year, c); s > bestShare {
			best, bestShare = c, s
		}
	}
	return best
}
