package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cryptomining/internal/api"
	"cryptomining/internal/obs"
	"cryptomining/internal/persist"
	"cryptomining/internal/probe"
	"cryptomining/internal/scenario"
	"cryptomining/internal/stream"
	"cryptomining/pkg/apiv1"
	"cryptomining/pkg/client"
)

// daemon is the in-process equivalent of one streamd process: the same
// constructors in the same order as cmd/streamd/main.go (one registry, the
// engine with GOMAXPROCS shards and queue depth 64, the directory prober, the
// durable store on a data directory, the scenario manager and the v1 API on a
// loopback listener), with the feed, flags and logging left out.
type daemon struct {
	reg       *obs.Registry
	eng       *stream.Engine
	prober    *probe.Scheduler
	store     *persist.Store
	scenarios *scenario.Manager
	srv       *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client
	// cancel ends the engine's and the prober's goroutines at close.
	cancel context.CancelFunc

	// Instants around the two recovery calls, persist.Open and Store.Resume.
	openStart, openEnd, resumeEnd time.Time
}

// boot wires and starts a daemon over the data directory, resuming whatever
// state the directory holds.
func boot(ctx context.Context, c corpus, dir string) (_ *daemon, err error) {
	ctx, cancel := context.WithCancel(ctx)
	d := &daemon{reg: obs.NewRegistry(), served: make(chan error, 1), cancel: cancel}
	defer func() {
		if err == nil {
			return
		}
		d.prober.Close()
		if d.store != nil {
			_ = d.store.Close()
		}
		cancel()
	}()
	obs.RegisterRuntimeMetrics(d.reg)
	obs.RegisterBuildInfo(d.reg)

	cfg := c.cfg
	cfg.Shards = 0
	cfg.QueueDepth = 64
	cfg.Metrics = d.reg
	d.prober = probe.New(probe.Config{
		Source:  probe.NewDirectorySource(cfg.Pools, cfg.QueryTime),
		Rates:   cfg.Rates,
		Metrics: d.reg,
	})
	cfg.Prober = d.prober
	d.eng = stream.New(cfg)

	d.openStart = time.Now()
	if d.store, err = persist.Open(dir, persist.WithMetrics(d.reg)); err != nil {
		return nil, fmt.Errorf("open data dir: %w", err)
	}
	d.openEnd = time.Now()
	if _, err = d.store.Resume(ctx, d.eng); err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	d.resumeEnd = time.Now()
	d.prober.Start(ctx)

	d.scenarios, err = scenario.NewManager(scenario.Config{
		Engine:        d.eng,
		Base:          cfg,
		MaxConcurrent: 1,
		MaxRetained:   16,
		Metrics:       d.reg,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario manager: %w", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.srv = &http.Server{
		Handler: api.New(api.Config{
			Engine:    d.eng,
			Submit:    d.store.Submit,
			Probe:     d.prober,
			Scenarios: d.scenarios,
			Metrics:   d.reg,
			Checkpoint: func() (apiv1.Checkpoint, error) {
				info, err := d.store.Checkpoint()
				return apiv1.Checkpoint{Path: info.Path, Bytes: info.Bytes, Logged: info.Logged, Processed: info.Processed}, err
			},
		}).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	// One connection of its own: the reader is one client on one keep-alive
	// connection, and nothing outlives the daemon in a shared pool.
	d.transport = &http.Transport{MaxConnsPerHost: 1}
	d.client, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: d.transport}))
	if err != nil {
		_ = d.srv.Close()
		<-d.served
		return nil, err
	}
	return d, nil
}

// close stops the daemon the way a crash would leave it on disk: the WAL is
// closed, no parting checkpoint is written. It returns once the listener, the
// prober's workers and the store have all stopped; the engine's goroutines
// are cancelled and exit on their own.
func (d *daemon) close() error {
	d.transport.CloseIdleConnections()
	err := d.srv.Close()
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.prober.Close()
	if cerr := d.store.Close(); err == nil {
		err = cerr
	}
	d.cancel()
	return err
}

// quiesce waits until the collector has absorbed total submissions and the
// prober has priced every wallet they brought.
func (d *daemon) quiesce(ctx context.Context, total int64) error {
	for {
		st := d.eng.Stats()
		if st.Analyzed+st.Duplicates >= total {
			return d.prober.WaitConverged(ctx)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
	}
}

// pollEvery is how often the harness reads Engine.Stats() while it waits for
// samples to become visible: fine enough to resolve millisecond latencies,
// coarse enough that the poller stays asleep almost all the time.
const pollEvery = 250 * time.Microsecond
