// The catalogue-cache tests build aggregators over the store, and campaign
// imports osint.
package osint_test

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"cryptomining/internal/campaign"
	"cryptomining/internal/model"
	"cryptomining/internal/osint"
)

// toolBinary fabricates a deterministic tool-like binary: repeated code
// interleaved with random runs, so that a lightly patched copy stays within
// the fuzzy-hash threshold.
func toolBinary(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	body := make([]byte, 60_000)
	chunk := []byte("push ebp; mov ebp, esp; call cryptonight_hash; ret; ")
	for i := 0; i < len(body); {
		if rng.Intn(2) == 0 {
			i += copy(body[i:], chunk)
			continue
		}
		n := min(rng.Intn(48)+16, len(body)-i)
		rng.Read(body[i : i+n])
		i += n
	}
	return body
}

// attributed aggregates one unrecorded sample with the given body and returns
// the stock tools its campaign is enriched with.
func attributed(store *osint.Store, body []byte) []string {
	res := campaign.New(campaign.DefaultConfig(store, nil, nil)).Aggregate([]campaign.Input{{
		Record:  model.Record{SHA256: "f00d", Type: model.TypeAncillary},
		Content: body,
	}})
	return res.Campaigns[0].StockTools
}

func patched(body []byte) []byte {
	out := append([]byte(nil), body...)
	out[len(out)/2] ^= 0xff
	return out
}

// TestCatalogueHashedOncePerStore: every aggregator built over one store
// shares one hashing of its catalogue; a tool added after the first build
// re-hashes it once, and the aggregators built after that attribute the new
// tool's modified builds to it.
func TestCatalogueHashedOncePerStore(t *testing.T) {
	hashes := osint.CountCatalogueHashes(t)
	store := osint.NewDefaultStore()
	store.AddStockTool(osint.StockTool{Name: "xmrig", Version: "2.14.1", SHA256: "aa", Content: toolBinary(1)})
	store.AddStockTool(osint.StockTool{Name: "claymore", Version: "11.3", SHA256: "bb", Content: toolBinary(2)})
	store.AddStockTool(osint.StockTool{Name: "yam", Version: "1.0", SHA256: "cc"}) // no binary: nothing to hash

	cfg := campaign.DefaultConfig(store, nil, nil)
	campaign.New(cfg)
	campaign.NewIncremental(cfg)
	if got := hashes.Load(); got != 2 {
		t.Fatalf("two aggregators over one store hashed %d catalogue bodies, want the 2 with a binary once", got)
	}
	if got := attributed(store, patched(toolBinary(1))); !reflect.DeepEqual(got, []string{"xmrig"}) {
		t.Fatalf("a patched xmrig is attributed to %v", got)
	}

	ccminer := toolBinary(3)
	if got := attributed(store, patched(ccminer)); got != nil {
		t.Fatalf("a patched ccminer is attributed to %v before ccminer is catalogued", got)
	}
	hashes.Store(0)
	store.AddStockTool(osint.StockTool{Name: "ccminer", Version: "2.3", SHA256: "dd", Content: ccminer})
	if got := attributed(store, patched(ccminer)); !reflect.DeepEqual(got, []string{"ccminer"}) {
		t.Fatalf("a patched ccminer is attributed to %v after ccminer was catalogued", got)
	}
	campaign.New(cfg)
	if got := hashes.Load(); got != 3 {
		t.Fatalf("after AddStockTool the catalogue was hashed %d times over, want its 3 binaries once", got)
	}
}

// TestStockSignaturesConcurrent: callers racing on an empty cache hash the
// catalogue once between them and all get the same signatures.
func TestStockSignaturesConcurrent(t *testing.T) {
	hashes := osint.CountCatalogueHashes(t)
	store := osint.NewStore()
	for i, name := range []string{"xmrig", "claymore", "ccminer"} {
		store.AddStockTool(osint.StockTool{Name: name, Version: "1", SHA256: name, Content: toolBinary(int64(i))})
	}
	results := make([][]osint.StockSignature, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = store.StockSignatures()
		}()
	}
	wg.Wait()
	for _, r := range results[1:] {
		if !reflect.DeepEqual(r, results[0]) {
			t.Fatal("concurrent callers got different signatures")
		}
	}
	if got := hashes.Load(); got != 3 {
		t.Fatalf("8 concurrent callers hashed %d catalogue bodies, want 3", got)
	}
}
