package main

import (
	"fmt"
	"math/rand"

	"cryptomining/internal/core"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/ecosim"
	"cryptomining/internal/model"
	"cryptomining/internal/stream"
)

// workload is one named input to the benchmark: a corpus shape plus how the
// round (see round.go) spends it. Every workload runs the same daemon
// lifecycle — boot, drain, serve, checkpoint/crash/recover, what-if, seal — so
// every end-to-end metric exists on every workload; what differs is which
// layer does the blocking work.
type workload struct {
	name string
	why  string
	// wide selects the streamed ~0.9 KB-body corpus (many campaigns and
	// wallets per byte); otherwise the materialised ~35 KB-body universe.
	wide bool
	// samples is the corpus size: exact for the wide corpus, a target for the
	// materialised one (ecosim scales campaign counts, not samples). What the
	// serve phase and the tails do not take is drained.
	samples int
	// serve samples are fed open-loop at rate samples/s, a reader beside them.
	serve int
	rate  float64
	// cycles checkpoint → WAL-only tail → crash → recover iterations, each
	// with tail samples that only the WAL holds at the crash.
	cycles, tail int
	// replays of the fixed pool_ban document through scenario.Manager.
	replays int
}

// workloads is the benchmark. Sizes are set so that a round takes 4.5–7 s on
// two cores: four to six rounds fit in the default run, and a host that runs
// a quarter slow still gets three.
var workloads = []workload{
	{
		name:    "heavy-drain",
		why:     "Drains ~35 KB bodies: static/yara does nearly all blocking work, collector and view do little. A matcher rewrite shows here and should not move wide-drain.",
		samples: 217, serve: 30, rate: 12, cycles: 2, replays: 3,
	},
	{
		name: "wide-drain",
		why:  "Drains ~0.9 KB bodies over ~700 campaigns and wallets: collector, view publication and probe-update republishes dominate, static is minor. O(dirty) publication shows here, not on heavy-drain.",
		wide: true, samples: 4250, serve: 225, rate: 150, cycles: 2, tail: 250, replays: 3,
	},
	{
		name: "paced-serve",
		why:  "Mostly served: 150 samples/s open loop beside 50 reads/s, below the knee, so latency measures the write and read paths sharing one view, not the queue. Lazy views show as a read regression.",
		wide: true, samples: 2920, serve: 420, rate: 150, cycles: 2, tail: 50, replays: 3,
	},
	{
		name: "recover-whatif",
		why:  "Three checkpoint/crash/recover cycles and four pool_ban replays a round: collector and aggregator state used in bulk (export, encode, restore, fork) instead of incrementally.",
		wide: true, samples: 3030, serve: 180, rate: 150, cycles: 3, tail: 150, replays: 4,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// corpus is a generated input, already cut into the round's phases, and the
// analysis dependencies (AV, DNS, pools, ...) the engine needs to judge it.
// The program under test only ever sees these samples.
type corpus struct {
	drain, serve []*model.Sample
	tails        [][]*model.Sample
	cfg          stream.Config
}

// all returns every sample in feed order.
func (c corpus) all() []*model.Sample {
	out := append(append([]*model.Sample(nil), c.drain...), c.serve...)
	for _, t := range c.tails {
		out = append(out, t...)
	}
	return out
}

// ecosystemSeed pins the simulated ecosystem every corpus is taken from: its
// pools, campaigns, wallets and sample bodies, and which of them each phase
// of the round is fed. The --seed orders the feed inside each phase.
// Independent ecosystems differ by ±30% in drain throughput and more in
// campaign count, and 48 served samples drawn afresh differ tenfold in median
// body size — the luck of the draw would bury any change to the program. The
// same samples in another order cost the same work, so a second seed checks
// that a result does not hang on one arrival order.
const ecosystemSeed = 2019

// jitterBlock is how far the seed may move a streamed sample from its place:
// the stream's order carries its structure (campaigns come and go in waves),
// so the seed shuffles only inside consecutive blocks of this many samples.
const jitterBlock = 32

// heavyBody is the least body size, in bytes, the materialised universe's
// serve phase is fed.
const heavyBody = 8 << 10

// generate builds the workload's corpus from the seed alone: same seed, same
// bytes, same order.
func generate(w workload, seed int64) (corpus, error) {
	var c corpus
	var samples []*model.Sample
	block := jitterBlock
	if w.wide {
		gen := ecosim.NewStream(ecosim.StreamConfig{Seed: ecosystemSeed, Ledger: true})
		samples = make([]*model.Sample, w.samples)
		for i := range samples {
			samples[i] = gen.Next().Sample
		}
		c.cfg = stream.Config{
			AV:        gen.AVProvider(),
			Resolver:  dnssim.NewResolver(gen.Zone()),
			Zone:      gen.Zone(),
			Pools:     gen.Pools(),
			Network:   gen.Network(),
			QueryTime: gen.QueryTime(),
		}
	} else {
		// The whole universe, as streamd replays one: in hash order, which
		// is as good as random, then fully shuffled inside each phase. ecosim
		// scales campaign counts, not samples: ~2170 per unit of scale.
		cfg := ecosim.DefaultConfig().Scale(float64(w.samples) / 2170)
		cfg.Seed = ecosystemSeed
		u := ecosim.Generate(cfg)
		for _, h := range u.Corpus.Hashes() {
			if s, ok := u.Corpus.Get(h); ok {
				samples = append(samples, s)
			}
		}
		c.cfg = core.NewFromUniverse(u).StreamConfig()
		block = len(samples)
	}

	nDrain := len(samples) - w.serve - w.cycles*w.tail
	if nDrain < 1 {
		return c, fmt.Errorf("%s: corpus of %d samples leaves nothing to drain", w.name, len(samples))
	}
	if !w.wide {
		// The universe is bimodal: three bodies in five are scripts under
		// 1 KB, the rest binaries of 25–200 KB. The serve phase takes binaries
		// only, so its latencies are those of a heavy body and their median
		// does not sit in the gap between the two modes.
		var served, rest []*model.Sample
		for _, s := range samples {
			if len(served) < w.serve && len(s.Content) >= heavyBody {
				served = append(served, s)
			} else {
				rest = append(rest, s)
			}
		}
		if len(served) < w.serve {
			return c, fmt.Errorf("%s: %d bodies of %d bytes or more, %d to serve", w.name, len(served), heavyBody, w.serve)
		}
		samples = append(append(rest[:nDrain:nDrain], served...), rest[nDrain:]...)
	}
	rng := rand.New(rand.NewSource(seed))
	cut := func(n int) []*model.Sample {
		phase := samples[:n:n]
		samples = samples[n:]
		for lo := 0; lo < n; lo += block {
			b := phase[lo:min(lo+block, n)]
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		}
		return phase
	}
	c.drain, c.serve = cut(nDrain), cut(w.serve)
	for i := 0; i < w.cycles; i++ {
		c.tails = append(c.tails, cut(w.tail))
	}
	return c, nil
}
