package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"sysscale"
	"sysscale/internal/diskcache"
	"sysscale/internal/engine"
	"sysscale/internal/soc"
)

// options sizes a run. defaultOptions holds the benchmark's settings;
// the tests shrink the sizes and install the fault hooks.
type options struct {
	seed    uint64
	measure time.Duration // measured host time per run
	trace   bool
	outDir  string

	clients     int           // closed-loop clients of the service workloads
	parallelism int           // engine parallelism
	setups      int           // minimum set-up repetitions; setup_s is their median
	setupBudget time.Duration // cheap set-ups repeat until this is spent
	samples     int           // jobs re-run through sysscale.Run by the gate
	layerReps   int           // repetitions of each per-layer timing
	probeIters  int           // host-speed probe kernel iterations per sample

	mcWorkloads int // generated workloads per Monte Carlo sweep
	mcPools     int // distinct Monte Carlo sweep inputs, cycled
	sweepSize   int // specs per sweep request
	epochSweeps int // svc-cold sweeps per epoch

	// Fault hooks for the benchmark's own tests: wrap the served
	// handler, or the disk tier under the engine. Nil in real runs.
	wrapHandler func(http.Handler) http.Handler
	wrapTier    func(diskcache.Tier) diskcache.Tier

	// probe samples the host's speed; run creates it.
	probe *hostProbe
}

func defaultOptions() options {
	return options{
		seed:        defaultSeed,
		measure:     20 * time.Second,
		outDir:      ".bench_build/perfbench-out",
		clients:     2,
		parallelism: runtime.NumCPU(),
		setups:      5,
		setupBudget: time.Second,
		samples:     8,
		layerReps:   5,
		probeIters:  probeIters,
		mcWorkloads: 100,
		mcPools:     4,
		sweepSize:   16,
		epochSweeps: 32,
	}
}

// maxSetups bounds the set-up repetitions.
const maxSetups = 25

// workload is one benchmark workload. run calls setup o.setups times
// on fresh values and keeps the last; phase is the measured closed
// loop, called once untraced and, in a traced run, once more traced.
type workload interface {
	setup() error
	phase(d time.Duration, tr *tracer, g *gate) (*phaseStats, error)
	// items is the reference set the gate checks, in input order.
	items() []*item
	// tailPct is the sweep-latency percentile reported as
	// sweep_tail_ms: over the whole run on mc-cold, and per epoch on
	// svc-cold (see phaseStats.tails).
	tailPct() float64
	// gen is the host time set-up spent in GenerateWorkloads, and the
	// number of workloads it generated.
	gen() (seconds float64, count int)
}

var workloads = map[string]func(*options) workload{
	"mc-cold":  newMCCold,
	"svc-cold": newSvcCold,
}

// item is one job of a workload's input set.
type item struct {
	cfg  sysscale.Config  // the runnable config, as the engine runs it
	spec sysscale.JobSpec // its wire spec
	body []byte           // the spec's JSON, as posted to /v1/jobs
	key  diskcache.Key    // spec fingerprint
	fp   string           // its hex form, as /v1/jobs reports it
	want []byte           // soc.AppendResult of the reference result
}

// phaseStats is what one measured phase observed.
type phaseStats struct {
	wall        time.Duration // measured host time
	results     int64         // results delivered and checked
	simSeconds  float64       // simulated seconds of those results
	attempted   int64         // jobs attempted
	failed      int64         // jobs failed: HTTP or in-band error, 503, cut stream, disk error
	sweepMS     []float64
	tails       []float64 // the tail percentile of each epoch's sweeps (svc-cold)
	firstLineMS []float64 // client time to a sweep's first NDJSON line
	rates       []float64 // results per host second, one per window
	simRates    []float64 // simulated seconds per host second, one per window
	engine      counters  // engine counters summed over the phase
	server      counters  // sweepd server counters summed over the phase
}

func (p *phaseStats) add(q *phaseStats) {
	p.wall += q.wall
	p.results += q.results
	p.simSeconds += q.simSeconds
	p.attempted += q.attempted
	p.failed += q.failed
	p.sweepMS = append(p.sweepMS, q.sweepMS...)
	p.tails = append(p.tails, q.tails...)
	p.firstLineMS = append(p.firstLineMS, q.firstLineMS...)
	p.rates = append(p.rates, q.rates...)
	p.simRates = append(p.simRates, q.simRates...)
	p.engine.add(q.engine)
	p.server.add(q.server)
}

// counters is a JSON counter object (engine.Stats, sweepd.ServerStats)
// read by field name, so a counter removed from the program becomes an
// absent metric instead of a build failure.
type counters map[string]float64

// countersOf reads the numeric fields of v's JSON form.
func countersOf(v any) (counters, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	c := counters{}
	for k, x := range m {
		if f, ok := x.(float64); ok {
			c[k] = f
		}
	}
	return c, nil
}

func (c *counters) add(d counters) {
	if *c == nil {
		*c = counters{}
	}
	for k, v := range d {
		(*c)[k] += v
	}
}

// report is a finished run: the result line and the lines before it.
type report struct {
	result result
	notes  []string
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run sets the workload up, measures it, checks it, and assembles the
// report.
func run(name string, newW func(*options) workload, o options) (*report, error) {
	var (
		w      workload
		setups []float64
	)
	o.probe = newHostProbe(o.parallelism, o.probeIters)
	// Set up at least o.setups times, and cheap set-ups more often
	// (until o.setupBudget is spent), so the median is steady.
	begin := time.Now()
	for i := 0; i < o.setups || (i < maxSetups && time.Since(begin) < o.setupBudget); i++ {
		w = newW(&o)
		o.probe.maybe()
		t := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	runtime.GC() // measure from a heap without set-up garbage

	g := &gate{}
	rep := &report{result: result{Metrics: map[string]metric{}}}
	total := &phaseStats{}
	var plain *phaseStats
	if o.trace {
		var (
			traced *phaseStats
			err    error
		)
		plain, traced, rep.result.Metrics, err = tracedRun(name, w, &o, g)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		total.add(traced)
		rep.result.Metrics["trace.overhead_frac"] = metric{1 - rate(traced)/rate(plain), "ratio"}
		gs, gn := w.gen()
		rep.result.Metrics["gen.generate_us_per_workload"] = metric{gs * 1e6 / float64(gn), "us"}
	} else {
		var err error
		if plain, err = w.phase(o.measure, nil, g); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.result.Metrics = endToEnd(plain, setups, w.tailPct(), o.probe.speed())
	}
	total.add(plain)

	if err := checkReferences(name, w.items(), &o, g); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if n := engine.RunnersInFlight(); n != 0 {
		g.fail("engine.RunnersInFlight() = %d after the run, want 0", n)
	}
	if total.failed != 0 {
		g.fail("%s: %d of %d jobs failed", name, total.failed, total.attempted)
	}
	rep.result.Correct = g.ok()
	rep.result.Attempted = total.attempted
	rep.result.Failed = total.failed
	rep.notes = notes(name, &o, plain, setups, w.tailPct(), g)
	return rep, nil
}

// rate is a phase's results per host second, over the whole phase.
func rate(p *phaseStats) float64 { return float64(p.results) / p.wall.Seconds() }

// endToEnd computes the end-to-end metrics from an untraced phase. The
// times and rates are scaled to the reference host by the run's host
// speed (see hostProbe).
func endToEnd(p *phaseStats, setups []float64, tail, speed float64) map[string]metric {
	return map[string]metric{
		"jobs_per_s":       {median(p.rates) / speed, "1/s"},
		"sim_s_per_host_s": {median(p.simRates) / speed, "s/s"},
		"sweep_p50_ms":     {median(p.sweepMS) * speed, "ms"},
		"sweep_tail_ms":    {sweepTail(p, tail) * speed, "ms"},
		"setup_s":          {median(setups) * speed, "s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
	}
}

// sweepTail is the median of the per-epoch tails where the workload
// has epochs, so a few slow epochs (a step in host speed or fsync
// latency) do not move it; otherwise the tail over all sweeps.
func sweepTail(p *phaseStats, tail float64) float64 {
	if len(p.tails) > 0 {
		return median(p.tails)
	}
	return percentile(p.sweepMS, tail)
}

// notes renders the human-readable report lines: every end-to-end
// figure the workload has, each percentile with its sample count.
func notes(name string, o *options, p *phaseStats, setups []float64, tail float64, g *gate) []string {
	ns := []string{
		fmt.Sprintf("perfbench %s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d %s",
			name, o.seed, o.measure.Seconds(), o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("  host speed=%.4f (probe median %.3f ms over %d samples, reference %g ms); the figures below are unscaled",
			o.probe.speed(), o.probe.medianMS(), len(o.probe.samples), probeRefMS),
		fmt.Sprintf("  untraced: %d results in %.3fs host time (%.1f/s); per window (n=%d): jobs_per_s p50=%.1f sim_s_per_host_s p50=%.1f",
			p.results, p.wall.Seconds(), rate(p), len(p.rates), median(p.rates), median(p.simRates)),
		fmt.Sprintf("  failed_frac=%g (%d of %d jobs)", float64(p.failed)/math.Max(1, float64(p.attempted)), p.failed, p.attempted),
		fmt.Sprintf("  setup_s=%.4f (median of %d set-ups) peak_rss_mb=%.1f", median(setups), len(setups), peakRSSMB()),
	}
	if xs := p.sweepMS; len(xs) > 0 {
		beyond := int(float64(len(xs)) * (100 - tail) / 100)
		line := fmt.Sprintf("  sweep_p50_ms=%.3f sweep_p%g_ms=%.3f (n=%d, %d beyond p%g)",
			median(xs), tail, percentile(xs, tail), len(xs), beyond, tail)
		if beyond < 10 {
			line += " (fewer than 10 samples beyond)"
		}
		ns = append(ns, line)
	}
	if len(p.tails) > 0 {
		ns = append(ns, fmt.Sprintf("  sweep_tail_ms=%.3f (median over %d epochs of each epoch's p%g)",
			median(p.tails), len(p.tails), tail))
	}
	if g.ok() {
		ns = append(ns, "  correctness gate: pass")
	} else {
		ns = append(ns, fmt.Sprintf("  correctness gate: FAIL (%d mismatches)", g.count))
		for _, m := range g.msgs {
			ns = append(ns, "    "+m)
		}
	}
	return ns
}

// traceSlices is the number of untraced and of traced slices a traced
// run alternates, so that a drift in host speed or disk latency during
// the run falls on both sides of trace.overhead_frac.
const traceSlices = 5

// tracedRun measures the workload half untraced and half traced, in
// alternating slices; each traced slice records spans and a CPU
// profile. It derives the per-layer metrics from the spans, the
// profiles, the runtime/metrics deltas and the per-layer timings.
func tracedRun(name string, w workload, o *options, g *gate) (plain, p *phaseStats, m map[string]metric, err error) {
	base := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d", name, o.seed))
	tr := newTracer()
	plain, p = &phaseStats{}, &phaseStats{}
	var (
		rt       runtimeSample
		profiles []string
	)
	d := o.measure / (2 * traceSlices)
	for k := 0; k < traceSlices; k++ {
		u, err := w.phase(d, nil, g)
		if err != nil {
			return nil, nil, nil, err
		}
		plain.add(u)
		path := fmt.Sprintf("%s.cpu.%d.pprof", base, k)
		t, dr, err := profiledPhase(path, w, d, tr, g)
		if err != nil {
			return nil, nil, nil, err
		}
		p.add(t)
		rt = rt.add(dr)
		profiles = append(profiles, path)
	}
	if err := tr.write(base + ".spans.ndjson"); err != nil {
		return nil, nil, nil, err
	}
	m = map[string]metric{}
	tr.metrics(m)
	rt.metrics(m, p.results)
	if err := cpuShares(profiles, m); err != nil {
		return nil, nil, nil, err
	}
	engineMetrics(p.engine, m)
	m["sweepd.rejected"] = metric{p.server["rejected"], "count"}
	m["sweepd.first_line_ms"] = metric{orZero(median(p.firstLineMS)), "ms"}
	if err := layerTimings(w.items(), o, m, g); err != nil {
		return nil, nil, nil, err
	}
	return plain, p, m, nil
}

// profiledPhase runs one traced phase under a CPU profile written to
// path, and returns the runtime/metrics deltas over it.
func profiledPhase(path string, w workload, d time.Duration, tr *tracer, g *gate) (*phaseStats, runtimeSample, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, runtimeSample{}, err
	}
	defer f.Close()
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, runtimeSample{}, err
	}
	p, err := w.phase(d, tr, g)
	pprof.StopCPUProfile()
	rt := readRuntime().sub(rt0)
	if err != nil {
		return nil, runtimeSample{}, err
	}
	return p, rt, f.Close()
}

// engineMetrics reports the engine counters. Counters the engine no
// longer has are left out.
func engineMetrics(c counters, m map[string]metric) {
	for metricName, key := range map[string]string{
		"engine.result_hits":   "hits",
		"engine.result_misses": "misses",
		"engine.span_dropped":  "span_dropped",
	} {
		if v, ok := c[key]; ok {
			m[metricName] = metric{v, "count"}
		}
	}
	h, hok := c["span_hits"]
	ms, mok := c["span_misses"]
	if hok && mok {
		m["engine.span_hit_ratio"] = metric{h / math.Max(1, h+ms), "ratio"}
	}
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the q-th percentile of xs by linear interpolation
// between closest ranks (NaN for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// appendResult is the byte form results are compared in.
func appendResult(b []byte, r sysscale.Result) []byte { return soc.AppendResult(b, r) }

// sameResult reports whether r encodes to want.
func sameResult(buf *[]byte, r sysscale.Result, want []byte) bool {
	*buf = appendResult((*buf)[:0], r)
	return bytes.Equal(*buf, want)
}
