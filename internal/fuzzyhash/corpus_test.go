// The corpus differential lives outside the package: ecosim imports
// fuzzyhash (through osint).
package fuzzyhash_test

import (
	"testing"

	"cryptomining/internal/ecosim"
	"cryptomining/internal/fuzzyhash"
)

// universe returns the stock-tool catalogue and the corpus bodies of the
// materialised universe cmd/bench's heavy-drain workload replays.
func universe() (catalogue, bodies [][]byte) {
	cfg := ecosim.DefaultConfig().Scale(0.1)
	cfg.Seed = 2019
	u := ecosim.Generate(cfg)
	for _, tool := range u.OSINT.StockTools() {
		catalogue = append(catalogue, tool.Content)
	}
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			bodies = append(bodies, s.Content)
		}
	}
	return catalogue, bodies
}

// TestHashCorpusDifferential: over every body of the benchmark's two corpora
// (cmd/bench: the first 4 000 streamed samples, and the materialised universe
// at a tenth of its scale with its stock-tool catalogue, both from ecosystem
// seed 2019), Hash returns the oracle's signature, and Compare the oracle's
// score for every universe body against every catalogue signature.
func TestHashCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("hashes ~14 MB twice")
	}
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019})
	for i := 0; i < 4000; i++ {
		fuzzyhash.CheckHash(t, gen.Next().Sample.Content)
	}

	catalogue, bodies := universe()
	retried := 0
	var toolSigs []fuzzyhash.Signature
	for _, body := range catalogue {
		if fuzzyhash.CheckHash(t, body) {
			retried++
		}
		toolSigs = append(toolSigs, fuzzyhash.Hash(body))
	}
	for _, body := range bodies {
		if fuzzyhash.CheckHash(t, body) {
			retried++
		}
		sig := fuzzyhash.Hash(body)
		for _, tool := range toolSigs {
			fuzzyhash.CheckCompare(t, sig, tool)
		}
	}
	if retried == 0 {
		t.Fatal("no body retried a smaller block size: the retry path went untested")
	}
	t.Logf("agreed on %d catalogue and %d universe bodies (%d retried a smaller block size)",
		len(catalogue), len(bodies), retried)
}

// BenchmarkHashUniverse hashes the catalogue and corpus bodies of the
// materialised universe (9.3 + 5.3 MB, a fifth of them retried at a smaller
// block size), with Hash and with the oracle.
func BenchmarkHashUniverse(b *testing.B) {
	catalogue, bodies := universe()
	all := append(catalogue, bodies...)
	size := 0
	for _, body := range all {
		size += len(body)
	}
	for _, bc := range []struct {
		name string
		hash func([]byte) fuzzyhash.Signature
	}{{"hash", fuzzyhash.Hash}, {"oracle", fuzzyhash.HashOracle}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(size))
			for b.Loop() {
				for _, body := range all {
					bc.hash(body)
				}
			}
		})
	}
}
