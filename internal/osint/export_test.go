package osint

import (
	"sync/atomic"
	"testing"

	"cryptomining/internal/fuzzyhash"
)

// CountCatalogueHashes counts the stock-tool bodies StockSignatures hashes,
// on every store, until the test ends.
func CountCatalogueHashes(t testing.TB) *atomic.Int64 {
	var n atomic.Int64
	hash := fuzzyHash
	fuzzyHash = func(b []byte) fuzzyhash.Signature {
		n.Add(1)
		return hash(b)
	}
	t.Cleanup(func() { fuzzyHash = hash })
	return &n
}
