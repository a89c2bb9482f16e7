package osint

import (
	"reflect"
	"testing"

	"cryptomining/internal/fuzzyhash"
	"cryptomining/internal/model"
)

func TestAddAndLookupIoC(t *testing.T) {
	s := NewStore()
	s.AddIoC(model.IoC{Type: model.IoCDomain, Value: "Photominer-C2.example.com", Operation: "Photominer"})
	s.AddIoC(model.IoC{Type: model.IoCWallet, Value: "4SMOMINRU_WALLET", Operation: "Smominru"})

	// Case-insensitive lookup.
	got := s.Lookup("photominer-c2.example.com")
	if len(got) != 1 || got[0].Operation != "Photominer" {
		t.Errorf("Lookup = %v", got)
	}
	if len(s.Lookup("unknown.example")) != 0 {
		t.Error("unknown value should have no IoCs")
	}
	if n := len(s.byValue); n != 2 {
		t.Errorf("distinct IoC values = %d, want 2", n)
	}
}

func TestAddIoCEmptyValueIgnored(t *testing.T) {
	s := NewStore()
	s.AddIoC(model.IoC{Type: model.IoCDomain, Value: "   ", Operation: "X"})
	if len(s.byValue) != 0 {
		t.Error("empty IoC value should be ignored")
	}
}

func TestOperationsAggregation(t *testing.T) {
	s := NewStore()
	for _, ioc := range []model.IoC{
		{Type: model.IoCDomain, Value: "a.example", Operation: "Adylkuzz"},
		{Type: model.IoCHash, Value: "deadbeef", Operation: "Rocke"},
		{Type: model.IoCHash, Value: "deadbeef", Operation: "Rocke"}, // duplicate
		{Type: model.IoCIP, Value: "10.0.0.1", Operation: "Adylkuzz"},
	} {
		s.AddIoC(ioc)
	}
	ops := s.Operations("a.example", "deadbeef", "10.0.0.1", "nothing")
	if len(ops) != 2 || ops[0] != "Adylkuzz" || ops[1] != "Rocke" {
		t.Errorf("Operations = %v", ops)
	}
	if got := s.Operations("nothing"); len(got) != 0 {
		t.Errorf("Operations(no match) = %v", got)
	}
}

func TestDonationWalletWhitelist(t *testing.T) {
	s := NewStore()
	s.AddDonationWallet("4XMRIG_DONATION", "xmrig")
	s.AddDonationWallet("4STAK_DONATION", "xmr-stak")
	if tool, ok := s.IsDonationWallet("4XMRIG_DONATION"); !ok || tool != "xmrig" {
		t.Errorf("IsDonationWallet = %q, %v", tool, ok)
	}
	if _, ok := s.IsDonationWallet("4MISCREANT"); ok {
		t.Error("non-donation wallet should not be whitelisted")
	}
	ws := s.DonationWallets()
	if len(ws) != 2 || ws[0] != "4STAK_DONATION" {
		t.Errorf("DonationWallets = %v", ws)
	}
}

func TestPPIBotnetForLabels(t *testing.T) {
	s := NewDefaultStore()
	botnet, ok := s.PPIBotnetForLabels([]string{"Win32.Virut.CE", "Trojan.Generic"})
	if !ok || botnet != "Virut" {
		t.Errorf("PPIBotnetForLabels = %q, %v", botnet, ok)
	}
	if _, ok := s.PPIBotnetForLabels([]string{"CoinMiner.X", "Trojan.Agent"}); ok {
		t.Error("non-PPI labels should not match")
	}
	if _, ok := s.PPIBotnetForLabels(nil); ok {
		t.Error("empty labels should not match")
	}
	// Ramnit and Nitol are also registered by default.
	if b, ok := s.PPIBotnetForLabels([]string{"Worm.Ramnit.A"}); !ok || b != "Ramnit" {
		t.Errorf("Ramnit label = %q, %v", b, ok)
	}
	if b, ok := s.PPIBotnetForLabels([]string{"Backdoor.Nitol!gen"}); !ok || b != "Nitol" {
		t.Errorf("Nitol label = %q, %v", b, ok)
	}
}

// TestPPIBotnetForLabelsDeterministic pins the choice for a label that
// contains two stems: the first stem in sorted order, every time, however the
// stems were registered.
func TestPPIBotnetForLabelsDeterministic(t *testing.T) {
	s := NewDefaultStore()
	labels := []string{"Trojan.Generic", "Win32.Ramnit.Nitol"}
	for i := 0; i < 1000; i++ {
		if b, ok := s.PPIBotnetForLabels(labels); !ok || b != "Nitol" {
			t.Fatalf("call %d: two-stem label = %q, %v, want Nitol", i, b, ok)
		}
	}
	// A non-ASCII label is lowercased as strings.ToLower does: the Kelvin
	// sign folds to an ASCII k.
	s.RegisterPPIFamily("Kelihos", "Kelihos")
	if b, ok := s.PPIBotnetForLabels([]string{"Win32.\u212aelihos.É"}); !ok || b != "Kelihos" {
		t.Errorf("non-ASCII label = %q, %v, want Kelihos", b, ok)
	}
	// Registering a stem again renames its botnet.
	s.RegisterPPIFamily("NITOL", "Nitol-2")
	if b, _ := s.PPIBotnetForLabels(labels); b != "Nitol-2" {
		t.Errorf("re-registered stem = %q, want Nitol-2", b)
	}
	if n := testing.AllocsPerRun(100, func() { s.PPIBotnetForLabels(labels) }); n != 0 {
		t.Errorf("ASCII labels cost %v allocations a call, want 0", n)
	}
}

func TestStockToolRegistry(t *testing.T) {
	s := NewStore()
	s.AddStockTool(StockTool{Name: "xmrig", Version: "2.14.1", SHA256: "AABBCC", Content: []byte("xmrig binary")})
	s.AddStockTool(StockTool{Name: "claymore", Version: "11.3", SHA256: "ddeeff", Content: []byte("claymore binary")})
	s.AddStockTool(StockTool{Name: "xmrig", Version: "2.13.0", SHA256: "001122", Content: []byte("older xmrig")})

	if s.StockToolCount() != 3 {
		t.Errorf("StockToolCount = %d, want 3", s.StockToolCount())
	}
	// Hash lookups are case-insensitive.
	tool, ok := s.StockToolByHash("aabbcc")
	if !ok || tool.Name != "xmrig" || tool.Version != "2.14.1" {
		t.Errorf("StockToolByHash = %+v, %v", tool, ok)
	}
	if !s.IsWhitelistedHash("DDEEFF") {
		t.Error("claymore hash should be whitelisted")
	}
	if s.IsWhitelistedHash("123456") {
		t.Error("unknown hash should not be whitelisted")
	}
	tools := s.StockTools()
	if len(tools) != 3 || tools[0].Name != "claymore" || tools[1].Version != "2.13.0" {
		t.Errorf("StockTools order = %+v", tools)
	}
}

// TestStockToolsTotalOrder: entries sharing name and version come out in
// SHA-256 order, whatever order they were added in, and so do their
// signatures — the fuzzy attribution reports the first catalogue match.
func TestStockToolsTotalOrder(t *testing.T) {
	tools := []StockTool{
		{Name: "xmrig", Version: "2.14.1", SHA256: "bb", Content: []byte("xmrig build b")},
		{Name: "xmrig", Version: "2.14.1", SHA256: "aa", Content: []byte("xmrig build a")},
		{Name: "xmrig", Version: "2.14.1", SHA256: "cc", Content: []byte("xmrig build c")},
	}
	for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}} {
		s := NewStore()
		for _, i := range order {
			s.AddStockTool(tools[i])
		}
		var got []string
		for _, tool := range s.StockTools() {
			got = append(got, tool.SHA256)
		}
		if want := []string{"aa", "bb", "cc"}; !reflect.DeepEqual(got, want) {
			t.Errorf("added in order %v: StockTools by SHA-256 = %v, want %v", order, got, want)
		}
		sigs := s.StockSignatures()
		for i, tool := range s.StockTools() {
			if sigs[i].Sig != fuzzyhash.Hash(tool.Content) {
				t.Errorf("added in order %v: signature %d is not %s's", order, i, tool.SHA256)
			}
		}
	}
}

func TestKnownCatalogues(t *testing.T) {
	if len(KnownOperations) != 6 {
		t.Errorf("KnownOperations = %d, want 6", len(KnownOperations))
	}
	if len(KnownPPIBotnets) != 3 {
		t.Errorf("KnownPPIBotnets = %d, want 3", len(KnownPPIBotnets))
	}
	if len(StockToolNames) != 13 {
		t.Errorf("StockToolNames = %d, want 13 frameworks", len(StockToolNames))
	}
}

func TestConcurrentStoreAccess(t *testing.T) {
	s := NewDefaultStore()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 500; i++ {
			s.AddIoC(model.IoC{Type: model.IoCDomain, Value: "d.example", Operation: "Rocke"})
		}
		close(done)
	}()
	for i := 0; i < 500; i++ {
		_ = s.Lookup("d.example")
		_ = s.Operations("d.example")
	}
	<-done
}

func BenchmarkLookup(b *testing.B) {
	s := NewStore()
	for i := 0; i < 10000; i++ {
		s.AddIoC(model.IoC{Type: model.IoCHash, Value: string(rune('a'+i%26)) + "hash", Operation: "Rocke"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup("mhash")
	}
}
