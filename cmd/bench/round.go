package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"cryptomining/internal/model"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/client"
)

// readRate is the open-loop reader's request rate beside every feed.
const readRate = 50.0

// banDocument is the one fixed what-if every replay runs: report every seen
// wallet to every pool from 2016 on, all pools cooperating.
var banDocument = scenario.Document{
	Name: "bench-pool-ban",
	Interventions: []scenario.Intervention{{
		Kind:        scenario.KindPoolBan,
		At:          model.Date(2016, 1, 1),
		Cooperation: map[string]scenario.Cooperation{"*": {Cooperative: true, MinIPsToBan: 1}},
	}},
}

// roundResult is what one daemon lifecycle measured.
type roundResult struct {
	setupS float64
	// drainN samples were drained closed-loop; drainS runs from the first
	// submit to the instant all of them were visible and priced.
	drainN int
	drainS float64
	// visibleMs holds, per served sample, due instant to visibility; reads
	// are the GETs issued beside them.
	visibleMs []float64
	reads     []readSample
	// One entry per cycle / replay.
	recoveryS, replayS []float64
	heapPerSample      float64
	ops, failed        int
	failures           []string
	digest             string
	// traced rounds record spans and hold their per-layer readings in layers,
	// one entry per observation (a phase, a cycle).
	traced bool
	layers map[string][]float64
	// scrapeText is the raw registry exposition at the end of a traced drain.
	scrapeText string
}

// layer records one reading of a per-layer metric.
func (r *roundResult) layer(name string, v float64) {
	r.layers[name] = append(r.layers[name], v)
}

func (r *roundResult) fail(format string, args ...any) {
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// op counts one attempted operation and its failure, if any.
func (r *roundResult) op(what string, err error) bool {
	r.ops++
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	return true
}

// feedOps folds one feed's operations and failures into the round.
func (r *roundResult) feedOps(fr *feedResult) {
	r.ops += fr.n + len(fr.reads)
	for _, f := range fr.failures {
		r.fail("%s", f)
	}
}

// round runs one daemon lifecycle over a fresh data directory:
//
//	setup    generate the corpus, wire and boot the daemon
//	drain    closed loop: one submitter, back to back, held by backpressure
//	serve    open loop at the workload's rate, a reader beside it
//	recover  checkpoint, WAL-only tail, crash, boot, compare — per cycle
//	whatif   replays of the fixed pool_ban document
//	seal     Finish on the recovered engine, digest of the Results
//
// Each end-to-end metric comes from one phase, measured the same way on
// every workload; the workloads differ in corpus and in how much of it each
// phase gets. A non-nil tracer makes it a traced round: spans around every
// call, registry scrapes at the phase boundaries, and a CPU profile of drain
// and serve when profile is set.
func round(ctx context.Context, w workload, seed int64, dir string, tr *tracer, profile string) (res *roundResult, err error) {
	res = &roundResult{traced: tr != nil, layers: map[string][]float64{}}
	root := tr.begin(w.name, 0)
	defer tr.end(root)

	// ---- setup: everything up to the first timed operation.
	phase := tr.begin("setup", root)
	t0 := time.Now()
	c, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := boot(ctx, c, dir)
	if err != nil {
		return nil, err
	}
	// The daemon is replaced on every recovery; close whichever is current.
	defer func() {
		if d != nil {
			if cerr := d.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	res.setupS = time.Since(t0).Seconds()
	tr.end(phase)
	heap0 := heapAfterGC()

	if tr != nil && profile != "" {
		if f, perr := os.Create(profile); perr == nil {
			defer f.Close()
			if pprof.StartCPUProfile(f) == nil {
				defer pprof.StopCPUProfile() // no-op once the serve phase has stopped it
			}
		}
	}

	// ---- drain.
	phase = tr.begin("drain", root)
	var before promSamples
	if tr != nil {
		before = d.scrape()
	}
	fr, err := feed(ctx, d, c.drain, 0, false, tr, phase)
	res.feedOps(fr)
	if err != nil {
		return res, err
	}
	tr.end(phase)
	res.drainN, res.drainS = fr.n, fr.converged.Sub(fr.start).Seconds()
	if tr != nil {
		drainLayers(res, d, before, fr)
	}
	submitted := fr.n

	// ---- serve.
	phase = tr.begin("serve", root)
	if tr != nil {
		before = d.scrape()
	}
	fr, err = feed(ctx, d, c.serve, w.rate, true, tr, phase)
	res.feedOps(fr)
	if err != nil {
		return res, err
	}
	tr.end(phase)
	pprof.StopCPUProfile()
	res.visibleMs, res.reads = fr.visibleMs, fr.reads
	if tr != nil {
		serveLayers(res, before, d.scrape(), fr)
	}
	submitted += fr.n

	// ---- recover.
	phase = tr.begin("recover", root)
	for i, tail := range c.tails {
		t := time.Now()
		info, cerr := d.store.Checkpoint()
		tr.record("checkpoint", phase, t, time.Now())
		if !res.op("checkpoint", cerr) {
			return res, cerr
		}
		checkpointS := time.Since(t).Seconds()
		// The tail lands in the WAL only: no checkpoint holds it at the crash.
		for _, s := range tail {
			t := time.Now()
			err := d.store.Submit(ctx, s)
			tr.record("submit", phase, t, time.Now())
			submitted++
			if !res.op("submit", err) {
				return res, err
			}
		}
		if err := d.quiesce(ctx, int64(submitted)); err != nil {
			return res, err
		}

		t = time.Now()
		state := d.eng.ExportState()
		exportS := time.Since(t).Seconds()
		pre := liveDigest(state, d.eng.CurrentView())
		old := d
		d = nil
		if err := old.close(); err != nil {
			return res, fmt.Errorf("crash: %w", err)
		}

		t = time.Now()
		d, err = boot(ctx, c, dir)
		if !res.op("resume", err) {
			return res, err
		}
		tr.record("open", phase, d.openStart, d.openEnd)
		tr.record("resume", phase, d.openEnd, d.resumeEnd)
		if err := d.quiesce(ctx, int64(submitted)); err != nil {
			return res, err
		}
		recovered := time.Now()
		res.recoveryS = append(res.recoveryS, recovered.Sub(t).Seconds())
		post := liveDigest(d.eng.ExportState(), d.eng.CurrentView())
		res.ops++
		if pre != post {
			res.fail("cycle %d: live state digest %s after recovery, %s before the crash", i, post[:12], pre[:12])
		}
		if tr != nil {
			res.layer("persist.checkpoint_s", checkpointS)
			res.layer("persist.fsync_s", old.scrape().total("persist_wal_fsync_seconds_sum"))
			res.layer("persist.checkpoint_mb", float64(info.Bytes)/(1<<20))
			res.layer("persist.open_s", d.openEnd.Sub(d.openStart).Seconds())
			res.layer("persist.resume_s", d.resumeEnd.Sub(d.openEnd).Seconds())
			res.layer("persist.replay_drain_s", recovered.Sub(d.resumeEnd).Seconds())
			res.layer("scenario.export_state_s", exportS)
			// What a scenario fork pays before it can replay anything: a
			// fresh engine loaded with the exported state.
			t = time.Now()
			if rerr := stream.New(c.cfg).RestoreState(state); rerr != nil {
				res.fail("restore exported state: %v", rerr)
			}
			res.layer("scenario.restore_state_s", time.Since(t).Seconds())
		}
	}
	tr.end(phase)

	// ---- whatif.
	phase = tr.begin("whatif", root)
	for i := 0; i < w.replays; i++ {
		t := time.Now()
		id, serr := d.scenarios.Submit(banDocument)
		if !res.op("scenario submit", serr) {
			return res, serr
		}
		job, werr := d.scenarios.Wait(id, 2*time.Minute)
		// Wait polls every 10 ms, a twentieth of a replay; the manager's own
		// finish stamp (same clock) says when the job was actually done.
		end := time.Now()
		if !job.FinishedAt.IsZero() && job.FinishedAt.Before(end) {
			end = job.FinishedAt
		}
		tr.record("scenario", phase, t, end)
		res.replayS = append(res.replayS, end.Sub(t).Seconds())
		switch {
		case werr != nil:
			res.fail("scenario wait: %v", werr)
		case job.State != scenario.StateDone:
			res.fail("scenario ended %s: %s", job.State, job.Error)
		case job.Result.Scenario.XMR > job.Result.Baseline.XMR:
			res.fail("pool ban raised earnings: %v > %v", job.Result.Scenario.XMR, job.Result.Baseline.XMR)
		}
	}
	tr.end(phase)

	// ---- seal: final results from the recovered engine.
	phase = tr.begin("seal", root)
	final, err := d.eng.Finish(ctx)
	tr.end(phase)
	if err != nil {
		return res, fmt.Errorf("finish: %w", err)
	}
	res.digest = resultsDigest(final)
	res.heapPerSample = (heapAfterGC() - heap0) / float64(submitted)
	// Both readings must hold the same things besides what the engine kept:
	// the corpus and the sealed results stay reachable until after the second.
	runtime.KeepAlive(c)
	runtime.KeepAlive(final)
	return res, nil
}

// heapAfterGC is the live heap in bytes after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// scrapeText renders the daemon's registry exposition; scrape parses it.
func (d *daemon) scrapeText() string {
	var b strings.Builder
	d.reg.WritePrometheus(&b)
	return b.String()
}

func (d *daemon) scrape() promSamples { return parseProm(d.scrapeText()) }

// feedResult is the raw record of one timed feed.
type feedResult struct {
	n int
	// start is the first due instant; lastSubmit the return of the last
	// submit; absorbed the instant every sample was visible; converged the
	// instant every wallet they brought was priced.
	start, lastSubmit, absorbed, converged time.Time
	due, visibleAt                         []time.Time
	visibleMs                              []float64
	submitS                                float64 // time spent inside Store.Submit
	lateMaxMs                              float64 // worst generator lateness, submitter and reader
	depthMean                              float64 // mean Backpressure at 10 Hz
	reads                                  []readSample
	failures                               []string
}

// feed pushes samples through Store.Submit from one goroutine — back to back
// when rate is 0, else each at its due instant start+i/rate — while a watcher
// polls Engine.Stats() for visibility and, when asked, a reader issues GETs
// at readRate.
// The engine bumps Analyzed+Duplicates strictly after the view swap, so the
// k-th unit of that sum is matched to the k-th due instant: exact for one
// shard, an order-statistic approximation when shards reorder completions.
func feed(ctx context.Context, d *daemon, samples []*model.Sample, rate float64, reader bool, tr *tracer, parent int) (*feedResult, error) {
	fr := &feedResult{n: len(samples), due: make([]time.Time, len(samples)), visibleAt: make([]time.Time, len(samples))}
	st := d.eng.Stats()
	base := st.Analyzed + st.Duplicates

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	stopReader := make(chan struct{})
	fr.start = time.Now()

	var depthSum, depthN float64
	watched := make(chan struct{})
	go func() { // watcher: the only poller while the feed runs
		defer close(watched)
		done, nextDepth := 0, fr.start
		for done < fr.n && ctx.Err() == nil {
			st := d.eng.Stats()
			now := time.Now()
			for covered := int(st.Analyzed + st.Duplicates - base); done < covered && done < fr.n; done++ {
				fr.visibleAt[done] = now
			}
			if !now.Before(nextDepth) {
				depthSum += float64(st.Backpressure)
				depthN++
				nextDepth = nextDepth.Add(100 * time.Millisecond)
			}
			time.Sleep(pollEvery)
		}
	}()
	var readerLate float64
	if reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr.reads, readerLate = readLoop(ctx, d.client, fr.start, stopReader, tr, parent)
		}()
	}

	var err error
	pace(wallClock{}, fr.start, fr.n, rate, func(i int, due time.Time) bool {
		fr.due[i] = due
		t := time.Now()
		err = d.store.Submit(ctx, samples[i])
		end := time.Now()
		tr.record("submit", parent, t, end)
		fr.submitS += end.Sub(t).Seconds()
		fr.lateMaxMs = max(fr.lateMaxMs, ms(t.Sub(due)))
		if err != nil {
			fr.failures = append(fr.failures, fmt.Sprintf("submit %d: %v", i, err))
		}
		return err == nil
	})
	fr.lastSubmit = time.Now()
	if err != nil {
		cancel()
	}
	<-watched
	if err == nil {
		if err = ctx.Err(); err == nil {
			fr.absorbed = fr.visibleAt[fr.n-1]
			err = d.prober.WaitConverged(ctx)
			fr.converged = time.Now()
		}
	}
	close(stopReader)
	wg.Wait()
	if err != nil {
		return fr, err
	}
	fr.lateMaxMs = max(fr.lateMaxMs, readerLate)
	if depthN > 0 {
		fr.depthMean = depthSum / depthN
	}
	fr.visibleMs = make([]float64, fr.n)
	for i := range fr.visibleMs {
		fr.visibleMs[i] = ms(fr.visibleAt[i].Sub(fr.due[i]))
	}
	for _, r := range fr.reads {
		if r.err != "" {
			fr.failures = append(fr.failures, r.err)
		}
	}
	return fr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// readKinds are the GETs the reader rotates over.
var readKinds = [...]string{"campaigns", "campaign_detail", "timeseries", "stats"}

// readSample is one read: its kind, due instant to body drained, and outcome.
type readSample struct {
	kind        string
	ms          float64
	notModified bool
	err         string
}

// readLoop issues one GET every 1/readRate seconds from start until stop,
// through pkg/client on one keep-alive connection, rotating over the campaign
// listing (50 per page, following the cursor), the top campaign's detail, the
// ecosystem timeseries and the stats, and replaying the last validator of
// the conditional kinds on every second round of the rotation. Each read is
// timed from its due instant, so a slow response delays — and is charged to —
// the reads behind it. It returns the reads and the worst start lateness.
func readLoop(ctx context.Context, cl *client.Client, start time.Time, stop <-chan struct{}, tr *tracer, parent int) ([]readSample, float64) {
	var (
		reads   []readSample
		lateMax float64
		etags   = map[string]string{}
		cursor  string
		topID   = -1
	)
	pace(wallClock{}, start, -1, readRate, func(j int, due time.Time) bool {
		select {
		case <-stop:
			return false
		case <-ctx.Done():
			return false
		default:
		}
		kind := readKinds[j%len(readKinds)]
		if kind == "campaign_detail" && topID < 0 {
			kind = "campaigns" // nothing listed yet: no ID to ask for
		}
		etag := ""
		if (j/len(readKinds))%2 == 1 {
			etag = etags[kind]
		}
		t := time.Now()
		lateMax = max(lateMax, ms(t.Sub(due)))
		var (
			err         error
			notModified bool
		)
		switch kind {
		case "campaigns":
			q := client.CampaignQuery{Limit: 50}
			if etag == "" {
				q.Cursor = cursor // a replayed validator belongs to the first page
			}
			page, tag, nm, e := cl.CampaignsConditional(ctx, q, etag)
			err, notModified = e, nm
			if e == nil && !nm {
				cursor = page.NextCursor
				if q.Cursor == "" {
					etags[kind] = tag
					if len(page.Campaigns) > 0 {
						topID = page.Campaigns[0].ID
					}
				}
			}
		case "campaign_detail":
			_, tag, nm, e := cl.CampaignConditional(ctx, topID, etag)
			err, notModified = e, nm
			if e == nil && !nm {
				etags[kind] = tag
			}
			if apiErr, ok := e.(*client.APIError); ok && apiErr.StatusCode == 404 {
				// IDs are positions in the partition order and shift while
				// campaigns merge; a vanished ID is not a failed read.
				err, topID = nil, -1
			}
		case "timeseries":
			_, tag, nm, e := cl.TimeseriesConditional(ctx, client.TimeseriesQuery{}, etag)
			err, notModified = e, nm
			if e == nil && !nm {
				etags[kind] = tag
			}
		case "stats":
			_, err = cl.Stats(ctx)
		}
		end := time.Now()
		tr.record("http", parent, t, end)
		rs := readSample{kind: kind, ms: ms(end.Sub(due)), notModified: notModified}
		if err != nil && ctx.Err() == nil {
			rs.err = fmt.Sprintf("GET %s: %v", kind, err)
		}
		reads = append(reads, rs)
		return true
	})
	return reads, lateMax
}
