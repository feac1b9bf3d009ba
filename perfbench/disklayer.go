package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"sysscale"
	"sysscale/internal/diskcache"
	"sysscale/internal/engine"
)

// diskLayer times the disk tier on the workload's jobs, as a service
// with a persistent result cache uses it: one engine simulates the jobs
// and writes each result through to a fresh store (Put, with fsync),
// then a second engine over a new store on the same directory (a
// restarted service) serves every job from it (Get, DecodeResult,
// promote). Both stores sit behind a timing tier passed through
// engine.WithDiskTier. Every result the second engine serves must equal
// the reference, every job must be a disk hit, and the disk tier may
// report no error.
func diskLayer(items []*item, o *options, m map[string]metric, g *gate) error {
	dir, err := os.MkdirTemp(o.outDir, "disk-layer-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dir = filepath.Join(dir, "tier")
	jobs := make([]sysscale.Job, len(items))
	for i, it := range items {
		jobs[i] = sysscale.Job{Config: it.cfg}
	}

	timed := &timedTier{}
	pass := func() (*diskcache.Store, *engine.Engine, []sysscale.Result, error) {
		store, err := diskcache.Open(dir)
		if err != nil {
			return nil, nil, nil, err
		}
		timed.Tier = store
		var tier diskcache.Tier = timed
		if o.wrapTier != nil {
			tier = o.wrapTier(tier)
		}
		eng := sysscale.NewEngine(sysscale.WithParallelism(o.parallelism), engine.WithDiskTier(tier))
		res, err := eng.RunBatch(jobs)
		return store, eng, res, err
	}

	store, fill, _, err := pass()
	if err != nil {
		return err
	}
	if n := store.Stats().Entries; n != len(items) {
		g.fail("disk layer: %d entries written through, want %d", n, len(items))
	}
	filled, err := countersOf(fill.CacheStats())
	if err != nil {
		return err
	}
	bytes := float64(store.Stats().Bytes)

	_, served, res, err := pass()
	if err != nil {
		return err
	}
	c, err := countersOf(served.CacheStats())
	if err != nil {
		return err
	}
	if hits := c["disk_hits"]; hits != float64(len(items)) {
		g.fail("disk layer: %v disk hits after a restart, want %d", hits, len(items))
	}
	var buf []byte
	for i, it := range items {
		if !sameResult(&buf, res[i], it.want) {
			g.fail("disk layer: the result served from disk for %s differs from the reference", it.fp)
		}
	}
	errs := filled["disk_errors"] + c["disk_errors"]
	if errs != 0 {
		g.fail("disk layer: %v disk errors, want 0", errs)
	}

	timed.mu.Lock()
	defer timed.mu.Unlock()
	m["diskcache.get_us_p50"] = metric{orZero(median(timed.gets)), "us"}
	m["diskcache.get_us_p99"] = metric{orZero(percentile(timed.gets, 99)), "us"}
	m["diskcache.put_us_p50"] = metric{orZero(median(timed.puts)), "us"}
	m["diskcache.put_us_p99"] = metric{orZero(percentile(timed.puts, 99)), "us"}
	m["diskcache.errors"] = metric{errs, "count"}
	m["diskcache.bytes"] = metric{bytes, "B"}
	m["engine.disk_hits"] = metric{c["disk_hits"], "count"}
	return nil
}

// timedTier is a diskcache.Tier decorator that times every Get and
// Put.
type timedTier struct {
	diskcache.Tier

	mu         sync.Mutex
	gets, puts []float64 // µs
}

func (t *timedTier) Get(key diskcache.Key) (sysscale.Result, bool, error) {
	start := time.Now()
	res, found, err := t.Tier.Get(key)
	t.record(start, &t.gets)
	return res, found, err
}

func (t *timedTier) Put(key diskcache.Key, res sysscale.Result) error {
	start := time.Now()
	err := t.Tier.Put(key, res)
	t.record(start, &t.puts)
	return err
}

func (t *timedTier) record(start time.Time, into *[]float64) {
	d := float64(time.Since(start)) / float64(time.Microsecond)
	t.mu.Lock()
	*into = append(*into, d)
	t.mu.Unlock()
}
