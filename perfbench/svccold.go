package main

import (
	"sync/atomic"
	"time"

	"sysscale"
	"sysscale/internal/engine"
)

// svcCold is the svc-cold workload: a restarted service meeting a
// sweep it has never seen. The measured phase is a series of epochs;
// each starts a fresh engine and server (memory tiers only, both
// empty) and posts every spec of the corpus once, in sweeps, so every
// job is decoded, fingerprinted, simulated and streamed back.
type svcCold struct {
	o       *options
	corpus  []*item
	sweeps  [][]*item
	bodies  [][]byte
	genTime time.Duration
}

func newSvcCold(o *options) workload { return &svcCold{o: o} }

func (w *svcCold) tailPct() float64 { return 90 }

func (w *svcCold) items() []*item { return w.corpus }

func (w *svcCold) gen() (float64, int) { return w.genTime.Seconds(), (len(w.corpus) + 1) / 2 }

func (w *svcCold) setup() error {
	n := w.o.sweepSize * w.o.epochSweeps
	corpus, genTime, err := buildCorpus(w.o.seed, "svc-cold", n)
	if err != nil {
		return err
	}
	w.corpus, w.genTime = corpus, genTime
	if err := simulate(sysscale.NewEngine(sysscale.WithParallelism(w.o.parallelism)), corpus); err != nil {
		return err
	}
	for i := 0; i < n; i += w.o.sweepSize {
		s := corpus[i : i+w.o.sweepSize]
		w.sweeps = append(w.sweeps, s)
		w.bodies = append(w.bodies, sweepBody(s))
	}
	return nil
}

// simulate runs items on eng and records their results as references.
func simulate(eng *engine.Engine, items []*item) error {
	jobs := make([]sysscale.Job, len(items))
	for i, it := range items {
		jobs[i] = sysscale.Job{Config: it.cfg}
	}
	res, err := eng.RunBatch(jobs)
	if err != nil {
		return err
	}
	for i, it := range items {
		it.want = appendResult(nil, res[i])
	}
	return nil
}

func (w *svcCold) phase(d time.Duration, tr *tracer, g *gate) (*phaseStats, error) {
	p := &phaseStats{}
	for p.wall < d {
		e, err := w.epoch(tr, g)
		if err != nil {
			return nil, err
		}
		p.add(e)
	}
	return p, nil
}

// epoch posts every sweep once to a fresh engine and server. Only the
// closed loop is timed.
func (w *svcCold) epoch(tr *tracer, g *gate) (*phaseStats, error) {
	w.o.probe.maybe()
	svc, err := startService(sysscale.NewEngine(sysscale.WithParallelism(w.o.parallelism)), w.o)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	svc.trace.Store(tr)

	var next atomic.Int64
	p := closedLoop(w.o.clients, func(cs *clientState) (outcome, bool) {
		i := int(next.Add(1) - 1)
		if i >= len(w.sweeps) {
			return outcome{}, false
		}
		return svc.postSweep(w.sweeps[i], w.bodies[i], cs, tr, tr.newID(), g), true
	})
	if len(p.sweepMS) > 0 {
		p.tails = []float64{percentile(p.sweepMS, w.tailPct())}
	}

	eng, srv, err := svc.stats()
	if err != nil {
		return nil, err
	}
	p.engine, p.server = eng, srv
	// A fresh engine has nothing cached: every job must be simulated.
	if misses := eng["misses"]; misses != float64(len(w.corpus)) {
		g.fail("svc-cold: %v result-cache misses in an epoch, want %d", misses, len(w.corpus))
	}
	if n := srv["runners_in_flight"]; n != 0 {
		g.fail("svc-cold: %v runners in flight after an epoch, want 0", n)
	}
	return p, nil
}
