package stream_test

import (
	"math/rand"
	"reflect"
	"testing"

	"cryptomining/internal/avsim"
	"cryptomining/internal/binfmt"
	"cryptomining/internal/core"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/entropy"
	"cryptomining/internal/model"
	"cryptomining/internal/spec"
)

// TestCompressionIsNotObfuscation carries Table X's rule end to end: a
// high-entropy miner body inside a compression container (CAB, "MSCF") is
// not obfuscated, while the same body without the container is. Neither
// generator emits a compressed body, so the test injects one miner of a
// generated campaign twice, with and without the CAB marker, and requires
// batch and stream to keep and record both alike.
func TestCompressionIsNotObfuscation(t *testing.T) {
	u := ecosim.Generate(ecosim.SmallConfig().Scale(0.2))
	var (
		behavior spec.Behavior
		campaign *ecosim.GroundTruthCampaign
	)
	for _, c := range u.Campaigns {
		if len(c.Samples) == 0 {
			continue
		}
		s, _ := u.Corpus.Get(c.Samples[0])
		if b, ok := spec.Extract(s.Content); ok && b.IsMiner && b.Wallet != "" {
			behavior, campaign = b, c
			break
		}
	}
	if campaign == nil {
		t.Fatal("no generated campaign has a miner with a wallet")
	}

	pad := make([]byte, 64*1024)
	rand.New(rand.NewSource(1)).Read(pad)
	// inject adds the miner, its container (if any) right after the PE
	// header, its command line in the clear and a random payload.
	inject := func(container string) string {
		b := binfmt.NewBuilder(model.FormatPE).WithPacker(container).AddString(behavior.CommandLine).WithPadding(pad)
		content := append(b.Build(), spec.Encode(behavior, false)...)
		sha, md5hex := binfmt.Hashes(content)
		u.Corpus.Add(&model.Sample{
			SHA256: sha, MD5: md5hex, Content: content,
			Sources:   []model.Source{model.SourceVirusTotal},
			FirstSeen: campaign.Start,
		})
		u.SampleTruths[sha] = avsim.SampleTruth{Malicious: true, Miner: true}
		u.GroundTruthBySample[sha] = campaign.ID
		return sha
	}
	compressed, plain := inject("CAB"), inject("")

	batch, err := core.NewFromUniverse(u).Run()
	if err != nil {
		t.Fatalf("batch run: %v", err)
	}
	streamed := ingestShuffled(t, u, 4, 2, 1)
	for _, c := range []struct {
		name, sha  string
		obfuscated bool
	}{{"CAB", compressed, false}, {"plain", plain, true}} {
		bo, so := batch.Outcomes[c.sha], streamed.Outcomes[c.sha]
		if bo == nil || so == nil || !bo.Kept || !so.Kept {
			t.Fatalf("%s body: batch outcome %+v, stream outcome %+v; want both kept", c.name, bo, so)
		}
		if !reflect.DeepEqual(bo.Record, so.Record) {
			t.Errorf("%s body: stream record %+v, batch %+v", c.name, so.Record, bo.Record)
		}
		if rec := bo.Record; rec.Obfuscated != c.obfuscated || rec.Entropy <= entropy.ObfuscationThreshold {
			t.Errorf("%s body: Obfuscated %t at entropy %.2f, want %t above %.1f",
				c.name, rec.Obfuscated, rec.Entropy, c.obfuscated, entropy.ObfuscationThreshold)
		}
	}
	if rec := batch.Outcomes[compressed].Record; rec.User != behavior.Wallet || rec.Packer != "" {
		t.Errorf("CAB body: wallet %q, packer %q; want %q and no packer", rec.User, rec.Packer, behavior.Wallet)
	}
}
