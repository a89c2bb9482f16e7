// The corpus differential lives outside the package: ecosim imports wallet.
package wallet_test

import (
	"testing"

	"cryptomining/internal/binfmt"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/sandbox"
	"cryptomining/internal/wallet"
)

// TestCandidatesCorpusDifferential: over the text static.Analyze reads from
// every body of the benchmark's two corpora (cmd/bench: the first 4 000
// streamed samples and the materialised universe at a tenth of its scale,
// both from ecosystem seed 2019), and over the command lines the sandbox hands
// to extract.Extract, the scanner returns what the regexes return.
func TestCandidatesCorpusDifferential(t *testing.T) {
	var bodies [][]byte
	gen := ecosim.NewStream(ecosim.StreamConfig{Seed: 2019})
	for i := 0; i < 4000; i++ {
		bodies = append(bodies, gen.Next().Sample.Content)
	}
	cfg := ecosim.DefaultConfig().Scale(0.1)
	cfg.Seed = 2019
	u := ecosim.Generate(cfg)
	for _, h := range u.Corpus.Hashes() {
		if s, ok := u.Corpus.Get(h); ok {
			bodies = append(bodies, s.Content)
		}
	}

	box, found := sandbox.New(nil), 0
	for _, body := range bodies {
		text, _ := binfmt.StringsText(body, 6)
		wallet.CheckCandidates(t, text)
		found += len(wallet.ExtractCandidates(text))
		for _, cl := range box.Run("", body).CommandLines() {
			wallet.CheckCandidates(t, cl)
			found += len(wallet.ExtractCandidates(cl))
		}
	}
	if found == 0 {
		t.Fatal("the corpora yielded no candidate: nothing compared")
	}
	t.Logf("agreed on %d candidates over %d bodies", found, len(bodies))
}
