package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sysscale"
	"sysscale/internal/diskcache"
	"sysscale/internal/sweepd"
)

// tinyOptions runs every workload in well under a second of
// measurement. The seed differs from defaultSeed, so the stored
// digests (recorded at the default sizes) are not checked.
func tinyOptions(t *testing.T) options {
	o := defaultOptions()
	o.seed = 7
	o.measure = 300 * time.Millisecond
	o.outDir = t.TempDir()
	o.setups = 1
	o.setupBudget = 0
	o.samples = 2
	o.layerReps = 1
	o.probeIters = 2000
	o.mcWorkloads = 4
	o.mcPools = 2
	o.sweepSize = 4
	o.epochSweeps = 2
	return o
}

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	for _, m := range bm.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bm.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var ns []string
	for n, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			continue
		}
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func runTiny(t *testing.T, name string, o options) *report {
	t.Helper()
	rep, err := run(name, workloads[name], o)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestWorkloads runs each workload at tiny size, untraced and traced:
// the gate passes, nothing fails, and each run prints exactly the
// metrics BENCHMARK.json declares for it.
func TestWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t)
			o.trace = trace
			rep := runTiny(t, name, o)
			r := rep.result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d\n%s", name, trace, r.Correct, r.Failed, r.Attempted, strings.Join(rep.notes, "\n"))
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if got := names(r.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s trace=%t: metrics %v, declared %v", name, trace, got, want)
			}
		}
	}
}

// flipFirstResult flips the lowest bit of Score in the first result
// line of the sweep streams it writes.
type flipFirstResult struct {
	http.ResponseWriter
	flipped *atomic.Bool
}

func (f flipFirstResult) Write(b []byte) (int, error) {
	if !bytes.Contains(b, []byte(`"result":`)) || !f.flipped.CompareAndSwap(false, true) {
		return f.ResponseWriter.Write(b)
	}
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var line map[string]any
	if err := d.Decode(&line); err != nil {
		return 0, err
	}
	res := line["result"].(map[string]any)
	score, err := res["Score"].(json.Number).Float64()
	if err != nil {
		return 0, err
	}
	res["Score"] = math.Float64frombits(math.Float64bits(score) ^ 1)
	out, err := json.Marshal(line)
	if err != nil {
		return 0, err
	}
	if _, err := f.ResponseWriter.Write(append(out, '\n')); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (f flipFirstResult) Flush() { f.ResponseWriter.(http.Flusher).Flush() }

// TestGateCatchesFlippedBit flips one bit of one result a svc-cold
// sweep streams; the run must be reported incorrect.
func TestGateCatchesFlippedBit(t *testing.T) {
	o := tinyOptions(t)
	var flipped atomic.Bool
	o.wrapHandler = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweeps" {
				w = flipFirstResult{w, &flipped}
			}
			next.ServeHTTP(w, r)
		})
	}
	rep := runTiny(t, "svc-cold", o)
	if !flipped.Load() || rep.result.Correct {
		t.Fatalf("flipped=%t correct=%t: the gate missed a flipped bit", flipped.Load(), rep.result.Correct)
	}
}

// TestJobCheck: checkJob passes a correct /v1/jobs response and fails
// one whose fingerprint differs from spec.Fingerprint.
func TestJobCheck(t *testing.T) {
	items, _, err := buildCorpus(7, "job-check", 2)
	if err != nil {
		t.Fatal(err)
	}
	it := items[0]
	it.want = appendResult(nil, sysscale.MustRun(it.cfg))
	srv := sweepd.New(sweepd.Config{Engine: sysscale.NewEngine()})
	var buf []byte
	g := &gate{}
	checkJob(srv, it, &buf, g)
	if !g.ok() {
		t.Fatalf("a correct response failed the gate: %v", g.msgs)
	}
	it.fp = items[1].fp
	checkJob(srv, it, &buf, g)
	if g.ok() {
		t.Fatal("the gate missed a wrong /v1/jobs fingerprint")
	}
}

// TestReferenceCheckCatchesFlippedBit corrupts one reference result;
// the re-run through sysscale.Run must catch it.
func TestReferenceCheckCatchesFlippedBit(t *testing.T) {
	o := tinyOptions(t)
	w := newMCCold(&o)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	items := w.items()
	for _, it := range items {
		it.want = appendResult(nil, sysscale.MustRun(it.cfg))
	}
	o.samples = len(items)
	g := &gate{}
	checkReferences("mc-cold", items, &o, g)
	if !g.ok() {
		t.Fatalf("clean references failed the gate: %v", g.msgs)
	}
	items[1].want[len(items[1].want)/2] ^= 1
	checkReferences("mc-cold", items, &o, g)
	if g.ok() {
		t.Fatal("the gate missed a flipped bit in a reference result")
	}
}

// dropDone suppresses the Done marker of the first sweep stream.
type dropDone struct {
	http.ResponseWriter
	dropped *atomic.Bool
}

func (d dropDone) Write(b []byte) (int, error) {
	if bytes.Contains(b, []byte(`"done":`)) && d.dropped.CompareAndSwap(false, true) {
		d.dropped.Store(true)
		return len(b), nil
	}
	return d.ResponseWriter.Write(b)
}

func (d dropDone) Flush() { d.ResponseWriter.(http.Flusher).Flush() }

// TestCutStreamCounted: a sweep stream that ends without its Done
// marker counts its jobs as failed, and fails the run.
func TestCutStreamCounted(t *testing.T) {
	o := tinyOptions(t)
	var dropped atomic.Bool
	o.wrapHandler = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(dropDone{w, &dropped}, r)
		})
	}
	rep := runTiny(t, "svc-cold", o)
	if !dropped.Load() || rep.result.Failed < int64(o.sweepSize) || rep.result.Correct {
		t.Fatalf("dropped=%t failed=%d correct=%t, want at least %d failed jobs and an incorrect run",
			dropped.Load(), rep.result.Failed, rep.result.Correct, o.sweepSize)
	}
}

// failingPuts is a disk tier whose writes all fail.
type failingPuts struct {
	diskcache.Tier
	errs atomic.Int64
}

func (f *failingPuts) Put(diskcache.Key, sysscale.Result) error {
	f.errs.Add(1)
	return errors.New("injected write failure")
}

func (f *failingPuts) Stats() diskcache.Stats {
	s := f.Tier.Stats()
	s.Errors += int(f.errs.Load())
	return s
}

// TestDiskErrorsCounted: a disk tier that errors during the disk-layer
// timing of a traced run fails the run.
func TestDiskErrorsCounted(t *testing.T) {
	o := tinyOptions(t)
	o.trace = true
	o.wrapTier = func(t diskcache.Tier) diskcache.Tier { return &failingPuts{Tier: t} }
	rep := runTiny(t, "svc-cold", o)
	if rep.result.Correct || rep.result.Metrics["diskcache.errors"].Value == 0 {
		t.Fatalf("correct=%t diskcache.errors=%v: disk write failures must be counted and fail the run",
			rep.result.Correct, rep.result.Metrics["diskcache.errors"].Value)
	}
}

// silentPuts is a disk tier that drops every write without an error.
type silentPuts struct{ diskcache.Tier }

func (silentPuts) Put(diskcache.Key, sysscale.Result) error { return nil }

// TestSkippedWriteThroughCaught: results that were never written to
// disk fail the run even when no error was reported.
func TestSkippedWriteThroughCaught(t *testing.T) {
	o := tinyOptions(t)
	o.trace = true
	o.wrapTier = func(t diskcache.Tier) diskcache.Tier { return silentPuts{t} }
	if rep := runTiny(t, "mc-cold", o); rep.result.Correct {
		t.Fatal("the gate missed results that were never written through")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
	if !math.IsNaN(median(nil)) || orZero(median(nil)) != 0 {
		t.Error("empty sample: want NaN, and 0 through orZero")
	}
}
