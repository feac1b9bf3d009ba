package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced phase in memory; write saves them
// at the end. A nil *tracer records nothing, so untraced phases pay
// only a nil check. See README.md for the span file format.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Req is the id of the request
// (root span) it belongs to; Parent is the span that caused it, 0 for
// a root. Times are nanoseconds since the phase started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID allocates a span id (0 on a nil tracer).
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a request's root span and returns its id.
func (t *tracer) root(name string, start, end time.Time) int64 {
	id := t.newID()
	t.add(id, 0, id, name, start, end)
	return id
}

// child records a span caused by request req.
func (t *tracer) child(req int64, name string, start, end time.Time) {
	t.add(t.newID(), req, req, name, start, end)
}

// write saves the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerSpans are the child span names, highest charging priority
// first: where children of one request overlap, the time is charged to
// the first of them in this list.
var layerSpans = []string{
	"engine.run",
	"engine.new",
	"sweepd.handler",
	"client.read",
	"client.write",
	"client.check",
}

// metrics derives the span metrics: each layer's share of the traced
// wall time (the summed duration of the root spans), the unattributed
// remainder, and the transport time of the service requests.
func (t *tracer) metrics(m map[string]metric) {
	t.mu.Lock()
	byReq := map[int64][]span{}
	for _, s := range t.spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	t.mu.Unlock()

	charged := map[string]int64{}
	var wall int64
	var transports []float64
	for _, ss := range byReq {
		var root *span
		for i := range ss {
			if ss[i].Parent == 0 {
				root = &ss[i]
			}
		}
		if root == nil {
			continue
		}
		wall += root.End - root.Start
		charge(root, ss, charged)
		if tr, ok := transport(ss); ok {
			transports = append(transports, tr)
		}
	}
	var attributed int64
	for _, name := range layerSpans {
		attributed += charged[name]
		m["trace.self_frac."+name] = metric{frac(charged[name], wall), "ratio"}
	}
	m["trace.unattributed_frac"] = metric{frac(wall-attributed, wall), "ratio"}
	m["sweepd.transport_us"] = metric{orZero(median(transports)), "us"}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// charge splits the root's interval into elementary segments at every
// child boundary and charges each segment to the highest-priority child
// covering it; segments no child covers stay unattributed.
func charge(root *span, ss []span, charged map[string]int64) {
	cuts := []int64{root.Start, root.End}
	for _, s := range ss {
		if s.Parent != 0 {
			cuts = append(cuts, max(root.Start, min(s.Start, root.End)), max(root.Start, min(s.End, root.End)))
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		best := len(layerSpans)
		for _, s := range ss {
			if s.Parent == 0 || s.Start > lo || s.End < hi {
				continue
			}
			if p := slices.Index(layerSpans, s.Name); p >= 0 && p < best {
				best = p
			}
		}
		if best < len(layerSpans) {
			charged[layerSpans[best]] += hi - lo
		}
	}
}

// transport is a request's loopback time in µs: from the request's
// start to its last response byte, minus the server handler's time.
func transport(ss []span) (float64, bool) {
	var root, handler, read *span
	for i := range ss {
		switch ss[i].Name {
		case "request.sweep":
			root = &ss[i]
		case "sweepd.handler":
			handler = &ss[i]
		case "client.read":
			read = &ss[i]
		}
	}
	if root == nil || handler == nil || read == nil {
		return 0, false
	}
	return float64((read.End-root.Start)-(handler.End-handler.Start)) / 1e3, true
}

// orZero maps the NaN of an empty sample to 0: a layer that did no
// work on a workload reports zero.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

// runtimeSample is a runtime/metrics snapshot of the allocation and GC
// CPU counters.
type runtimeSample struct{ allocBytes, allocs, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := make([]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.allocs - b.allocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.allocs + b.allocs, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// metrics reports the deltas per delivered result. They cover the
// whole process: server, engine and the in-process clients.
func (d runtimeSample) metrics(m map[string]metric, results int64) {
	n := float64(max(results, 1))
	m["runtime.alloc_bytes_per_job"] = metric{d.allocBytes / n, "B"}
	m["runtime.allocs_per_job"] = metric{d.allocs / n, "count"}
	gc := 0.0
	if d.totalCPU > 0 {
		gc = d.gcCPU / d.totalCPU
	}
	m["runtime.gc_cpu_frac"] = metric{gc, "ratio"}
}
