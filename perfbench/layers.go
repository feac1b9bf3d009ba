package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"sysscale"
	"sysscale/internal/soc"
	"sysscale/internal/spec"
	"sysscale/internal/sweepd"
)

// maxLayerJobs bounds the jobs the per-layer timings that simulate or
// fill an engine use.
const maxLayerJobs = 256

// layerTimings times each layer on the workload's own jobs and results,
// outside any measured phase. Each timing is the median over
// o.layerReps passes of the per-operation mean of one pass. The
// /v1/jobs responses of the handler timing are checked once, untimed.
func layerTimings(items []*item, o *options, m map[string]metric, g *gate) error {
	if err := wireForm(items); err != nil {
		return err
	}
	var sweeps [][]byte
	for i := 0; i < len(items); i += o.sweepSize {
		sweeps = append(sweeps, sweepBody(items[i:min(i+o.sweepSize, len(items))]))
	}
	results := make([]soc.Result, len(items))
	for i, it := range items {
		r, err := soc.DecodeResult(it.want)
		if err != nil {
			return fmt.Errorf("decoding a reference result: %w", err)
		}
		results[i] = r
	}
	sub := items[:min(len(items), maxLayerJobs)]
	jobs := make([]sysscale.Job, len(sub))
	for i, it := range sub {
		jobs[i] = sysscale.Job{Config: it.cfg}
	}

	var firstErr error
	check := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	perOp := func(name, unit string, n int, pass func()) {
		var xs []float64
		for r := 0; r < o.layerReps; r++ {
			t := time.Now()
			pass()
			xs = append(xs, float64(time.Since(t))/float64(time.Microsecond)/float64(n))
		}
		m[name] = metric{median(xs), unit}
	}

	perOp("spec.read_job_us", "us", len(items), func() {
		for _, it := range items {
			_, err := spec.ReadJob(bytes.NewReader(it.body))
			check(err)
		}
	})
	perOp("spec.read_jobs_us_per_spec", "us", len(items), func() {
		for _, b := range sweeps {
			_, err := spec.ReadJobs(bytes.NewReader(b))
			check(err)
		}
	})
	perOp("spec.decode_us", "us", len(items), func() {
		for _, it := range items {
			_, err := spec.Decode(it.spec)
			check(err)
		}
	})
	perOp("spec.fingerprint_us", "us", len(items), func() {
		for _, it := range items {
			_, err := spec.Fingerprint(it.spec)
			check(err)
		}
	})
	var buf []byte
	perOp("soc.append_result_us", "us", len(results), func() {
		for _, r := range results {
			buf = soc.AppendResult(buf[:0], r)
		}
	})
	perOp("soc.decode_result_us", "us", len(items), func() {
		for _, it := range items {
			_, err := soc.DecodeResult(it.want)
			check(err)
		}
	})
	enc := json.NewEncoder(io.Discard)
	perOp("sweepd.line_encode_us", "us", len(results), func() {
		for i := range results {
			check(enc.Encode(&sweepd.StreamLine{Index: i, Result: &results[i]}))
		}
	})

	// The simulator alone: the jobs on fresh parallelism-1 engines.
	perOp("soc.sim_us_per_job", "us", len(jobs), func() {
		_, err := sysscale.NewEngine(sysscale.WithParallelism(1)).RunBatch(jobs)
		check(err)
	})
	// The engine's hit path, then the handler over it without a socket.
	warm := sysscale.NewEngine(sysscale.WithParallelism(o.parallelism))
	_, err := warm.RunBatch(jobs)
	check(err)
	perOp("engine.hit_us_per_job", "us", len(jobs), func() {
		_, err := warm.RunBatch(jobs)
		check(err)
	})
	srv := sweepd.New(sweepd.Config{Engine: warm})
	// One pass outside the timing checks every response.
	for _, it := range sub {
		checkJob(srv, it, &buf, g)
	}
	perOp("sweepd.handler_job_us", "us", len(sub), func() {
		for _, it := range sub {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(it.body)))
			if rec.Code != http.StatusOK {
				check(fmt.Errorf("POST /v1/jobs through the recorder: status %d", rec.Code))
			}
		}
	})
	check(diskLayer(sub, o, m, g))
	return firstErr
}

// wireForm completes items built from a config alone (mc-cold's) with
// their wire spec, body and fingerprint.
func wireForm(items []*item) error {
	for _, it := range items {
		if it.body != nil {
			continue
		}
		js, err := sysscale.EncodeSpec(it.cfg)
		if err != nil {
			return err
		}
		full, err := newItem(js)
		if err != nil {
			return err
		}
		it.spec, it.body, it.key, it.fp = full.spec, full.body, full.key, full.fp
	}
	return nil
}
