package core

import (
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cryptomining/internal/ecosim"
	"cryptomining/internal/stream"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/paper from the batch run instead of comparing against it")

// TestArtefactsGolden pins every paper artefact byte for byte at the smokes'
// universe (seed 7, scale 0.12), rendered from the batch run and from a
// shuffled feed streamed through two shards and then sealed: a change that
// moves a fourth decimal in Table VIII fails here, by artefact name.
// Regenerate with: go test ./internal/core -run TestArtefactsGolden -update
func TestArtefactsGolden(t *testing.T) {
	cfg := ecosim.DefaultConfig().Scale(0.12)
	cfg.Seed = 7
	u := ecosim.Generate(cfg)
	p := NewFromUniverse(u)
	batch, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}

	scfg := p.StreamConfig()
	scfg.Shards = 2
	eng := stream.New(scfg)
	ctx := context.Background()
	eng.Start(ctx)
	hashes := u.Corpus.Hashes()
	rand.New(rand.NewSource(7)).Shuffle(len(hashes), func(i, j int) { hashes[i], hashes[j] = hashes[j], hashes[i] })
	for _, h := range hashes {
		s, _ := u.Corpus.Get(h)
		if err := eng.Submit(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := eng.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join("testdata", "paper")
	arts := Artefacts(u, batch)
	if *updateGolden {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, a := range arts {
			if err := os.WriteFile(filepath.Join(dir, a.File), []byte(a.Render()), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if committed, _ := filepath.Glob(filepath.Join(dir, "*.txt")); len(committed) != len(arts) {
		t.Errorf("%d golden files under %s, %d artefacts", len(committed), dir, len(arts))
	}
	for _, run := range []struct {
		name string
		arts []Artefact
	}{{"batch", arts}, {"streamed", Artefacts(u, streamed)}} {
		if len(run.arts) != len(arts) {
			t.Errorf("%s: %d artefacts, batch lists %d", run.name, len(run.arts), len(arts))
		}
		for _, a := range run.arts {
			t.Run(run.name+"/"+a.Name, func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join(dir, a.File))
				if err != nil {
					t.Fatal(err)
				}
				if got := a.Render(); got != string(want) {
					t.Errorf("%s differs from %s:\n--- got ---\n%s--- want ---\n%s", a.Name, a.File, got, want)
				}
			})
		}
	}
}
