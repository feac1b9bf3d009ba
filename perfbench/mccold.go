package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"sysscale"
)

// mcCold is the mc-cold workload: back-to-back Monte Carlo sweeps,
// each on a freshly built engine with no disk tier, as
// `experiments -run montecarlo` runs them. The sweeps cycle through
// mcPools generated populations. Set-up runs each population's sweep
// once to record the references every measured sweep of it must
// reproduce byte for byte.
type mcCold struct {
	o       *options
	pools   [][]sysscale.Workload
	refs    [][]*item // per pool, workload-major like Sweep.Configs
	genTime time.Duration
	genN    int
}

func newMCCold(o *options) workload { return &mcCold{o: o} }

func (w *mcCold) tailPct() float64 { return 75 }

func (w *mcCold) gen() (float64, int) { return w.genTime.Seconds(), w.genN }

func (w *mcCold) sweep(k int) *sysscale.Sweep {
	return sysscale.NewSweep().Policies(policies()...).Workloads(w.pools[k]...).Configure(experimentDuration)
}

func (w *mcCold) setup() error {
	for k := 0; k < w.o.mcPools; k++ {
		t := time.Now()
		ws := sysscale.GenerateWorkloads(sysscale.DefaultGenConfig(deriveSeed(w.o.seed, "mc-cold", k)), w.o.mcWorkloads)
		w.genTime += time.Since(t)
		w.genN += len(ws)
		w.pools = append(w.pools, ws)
		var refs []*item
		for _, cfg := range w.sweep(k).Configs() {
			refs = append(refs, &item{cfg: cfg})
		}
		rs, err := w.sweep(k).RunContext(context.Background(), sysscale.NewEngine(sysscale.WithParallelism(w.o.parallelism)))
		if err != nil {
			return err
		}
		nPol := len(policies())
		for j, it := range refs {
			it.want = appendResult(nil, rs.Result(j/nPol, j%nPol))
		}
		w.refs = append(w.refs, refs)
		// Collect the sweep's engine and results before the next one,
		// so set-up holds no more memory than one measured sweep does.
		runtime.GC()
	}
	return nil
}

func (w *mcCold) items() []*item {
	var all []*item
	for _, r := range w.refs {
		all = append(all, r...)
	}
	return all
}

func (w *mcCold) phase(d time.Duration, tr *tracer, g *gate) (*phaseStats, error) {
	p := &phaseStats{}
	nPol := len(policies())
	var buf []byte
	for i := 0; p.wall < d; i++ {
		k := i % len(w.pools)
		refs := w.refs[k]
		p.attempted += int64(len(refs))

		// Collect the last sweep's garbage outside the timer, so each
		// sweep starts from a clean heap, like a fresh process running
		// one sweep.
		runtime.GC()
		w.o.probe.maybe()
		t0 := time.Now()
		eng := sysscale.NewEngine(sysscale.WithParallelism(w.o.parallelism))
		t1 := time.Now()
		rs, err := w.sweep(k).RunContext(context.Background(), eng)
		t2 := time.Now()
		p.wall += t2.Sub(t0)
		if err != nil {
			p.failed += int64(len(refs))
			continue
		}
		p.sweepMS = append(p.sweepMS, ms(t2.Sub(t0)))
		var simSecs float64
		for j, it := range refs {
			res := rs.Result(j/nPol, j%nPol)
			simSecs += simSeconds(res)
			if !sameResult(&buf, res, it.want) {
				g.fail("mc-cold: sweep %d job %d differs from the reference", i, j)
			}
		}
		p.results += int64(len(refs))
		p.simSeconds += simSecs
		p.sample(int64(len(refs)), simSecs, t2.Sub(t0))
		if tr != nil {
			t3 := time.Now()
			root := tr.root("sweep", t0, t3)
			tr.child(root, "engine.new", t0, t1)
			tr.child(root, "engine.run", t1, t2)
			tr.child(root, "client.check", t2, t3)
		}
		c, err := countersOf(eng.CacheStats())
		if err != nil {
			return nil, fmt.Errorf("engine stats: %w", err)
		}
		p.engine.add(c)
	}
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
