package stream

import (
	"strings"

	"cryptomining/internal/avsim"
	"cryptomining/internal/binfmt"
	"cryptomining/internal/dnssim"
	"cryptomining/internal/extract"
	"cryptomining/internal/model"
	"cryptomining/internal/pool"
	"cryptomining/internal/sandbox"
)

// Stage indices of the per-shard chain, in dataflow order.
const (
	stageSanity = iota
	stageStatic
	stageSandbox
	stageEnrich
	numStages
)

// StageNames names the stages in dataflow order, indexed like the per-stage
// latency counters.
var StageNames = [numStages]string{"sanity", "static", "sandbox", "enrich"}

// avEntry caches one AV report and its detected labels.
type avEntry struct {
	report *model.AVReport
	labels []string
}

// Per-shard cache bounds. A continuous feed has unbounded key spaces (hashes,
// domains), so each cache is simply reset when it reaches its cap — cheap,
// and duplicate submissions cluster in time anyway.
const (
	maxAVCacheEntries   = 8192
	maxDNSCacheEntries  = 65536
	maxPoolCacheEntries = 65536
)

// cachingResolver memoizes DNS resolutions. It is confined to one shard's
// sandbox stage, so it needs no locking.
type cachingResolver struct {
	inner *dnssim.Resolver
	cache map[string]resolverEntry
}

type resolverEntry struct {
	res dnssim.Resolution
	err error
}

func (r *cachingResolver) Resolve(name string) (dnssim.Resolution, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if e, ok := r.cache[key]; ok {
		return e.res, e.err
	}
	res, err := r.inner.Resolve(name)
	if len(r.cache) >= maxDNSCacheEntries {
		r.cache = map[string]resolverEntry{}
	}
	r.cache[key] = resolverEntry{res: res, err: err}
	return res, err
}

// shard is one concurrent stage chain plus the caches its stages own. Each
// cache is touched by exactly one stage goroutine, so none of them locks.
type shard struct {
	e  *Engine
	in chan *Task
	// chans[i] feeds stage i; the enrich stage writes to the engine-wide
	// outcomes channel instead.
	chans [numStages]chan *Task
	// stages is the composed, contract-typed chain in dataflow order. Each
	// stage carries its own latency observers (engine StageStats plus, when
	// metrics are enabled, the self-registered histogram), so every Process
	// call updates both from one measurement.
	stages [numStages]Stage

	box *sandbox.Sandbox
	// avCache memoizes AV reports+labels (sanity stage only).
	avCache map[string]avEntry
	// poolCache memoizes known-pool domain lookups (enrich stage only).
	poolCache map[string]bool
}

func newShard(e *Engine) *shard {
	s := &shard{
		e:         e,
		avCache:   map[string]avEntry{},
		poolCache: map[string]bool{},
	}
	s.chans[0] = make(chan *Task, e.cfg.QueueDepth)
	s.in = s.chans[0]
	for i := 1; i < numStages; i++ {
		s.chans[i] = make(chan *Task, e.cfg.QueueDepth)
	}
	if e.cfg.Resolver != nil {
		s.box = sandbox.NewWithResolver(&cachingResolver{inner: e.cfg.Resolver, cache: map[string]resolverEntry{}})
	} else {
		s.box = sandbox.NewWithResolver(nil)
	}
	fns := [numStages]func(*Task){
		stageSanity:  s.sanity,
		stageStatic:  s.staticStage,
		stageSandbox: s.sandboxStage,
		stageEnrich:  s.enrich,
	}
	for idx, fn := range fns {
		s.stages[idx] = NewStage(StageNames[idx], fn, e.stageOptions(idx)...)
	}
	return s
}

// sanity runs the "is it an executable? is it malware?" checks: magic-number
// format detection, stock-tool whitelist, AV report (cached per shard) and
// the positives-threshold classification.
func (s *shard) sanity(it *Task) {
	o := &SampleOutcome{SHA256: it.sample.SHA256}
	it.outcome = o
	o.Executable = isExecutableFormat(binfmt.DetectFormat(it.sample.Content))
	o.Whitelisted = s.e.cfg.OSINT.IsWhitelistedHash(it.sample.SHA256)

	ent, ok := s.avCache[it.key]
	if !ok {
		var report *model.AVReport
		if s.e.cfg.AV != nil {
			report = s.e.cfg.AV.Report(it.sample.SHA256)
		} else {
			report = &model.AVReport{SHA256: it.sample.SHA256}
		}
		var labels []string
		for _, v := range report.Verdicts {
			if v.Detected && v.Label != "" {
				labels = append(labels, v.Label)
			}
		}
		ent = avEntry{report: report, labels: labels}
		if len(s.avCache) >= maxAVCacheEntries {
			s.avCache = map[string]avEntry{}
		}
		s.avCache[it.key] = ent
	}
	it.report = ent.report
	it.labels = ent.labels
	o.Positives = ent.report.Positives()
	it.cls = avsim.Classify(ent.report, s.e.cfg.MalwareThreshold, o.Whitelisted, false)
	o.IsMalware = it.cls.IsMalware && o.Executable
}

// staticStage runs the full static pass (strings, identifiers, endpoints,
// YARA, packer/entropy).
func (s *shard) staticStage(it *Task) {
	st := s.e.analyzer.Analyze(it.sample.Content)
	it.static = &st
}

// sandboxStage executes the sample in the (simulated) sandbox and merges all
// analyses into the Table I extraction record.
func (s *shard) sandboxStage(it *Task) {
	it.dynamic = s.box.Run(it.sample.SHA256, it.sample.Content)
	it.outcome.Record = extract.Extract(extract.Inputs{
		Sample:   it.sample,
		Static:   it.static,
		Dynamic:  it.dynamic,
		AVReport: it.report,
	})
}

// enrich decides the miner verdict: YARA rules, observed Stratum traffic, a
// recovered (wallet, pool) pair, known-pool DNS resolutions, or >=threshold
// engines labeling the sample as a miner. For a sample the collector may keep
// it also computes the fuzzy hash the aggregation attributes stock tools by,
// so that the collector only compares it.
func (s *shard) enrich(it *Task) {
	o := it.outcome
	o.IsMiner = len(it.static.YARAMatches) > 0 ||
		it.dynamic.MiningObserved ||
		o.Record.Type == model.TypeMiner ||
		s.contactsKnownPool(&o.Record) ||
		it.cls.LabeledMiner
	if retainable(o) {
		it.sig = s.e.signature(&o.Record, it.sample.Content)
	}
}

// contactsKnownPool reports whether any resolved domain belongs to (or
// aliases) a known mining pool, memoizing directory lookups per shard.
func (s *shard) contactsKnownPool(rec *model.Record) bool {
	check := func(d string) bool {
		if d == "" {
			return false
		}
		d = strings.ToLower(d)
		hit, ok := s.poolCache[d]
		if !ok {
			_, hit = s.e.cfg.Pools.PoolForDomain(d)
			if len(s.poolCache) >= maxPoolCacheEntries {
				s.poolCache = map[string]bool{}
			}
			s.poolCache[d] = hit
		}
		return hit
	}
	for _, d := range rec.DNSRR {
		if check(d) {
			return true
		}
	}
	if rec.URLPool != "" {
		if check(pool.HostOfEndpoint(rec.URLPool)) {
			return true
		}
	}
	return false
}
