package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"sysscale"
)

// seedTag separates the input streams drawn from one benchmark seed.
func seedTag(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// deriveSeed derives the generator seed of stream tag, element k.
func deriveSeed(seed uint64, tag string, k int) uint64 {
	return rand.New(rand.NewPCG(seed^seedTag(tag), uint64(k))).Uint64() | 1
}

// policies are the four Monte Carlo columns: the baseline first.
func policies() []sysscale.Policy {
	return []sysscale.Policy{
		sysscale.NewBaseline(),
		sysscale.NewSysScale(),
		sysscale.NewMemScale(true),
		sysscale.NewCoScale(true),
	}
}

// minRunTime and experimentDuration are the experiments harness's
// duration rule: two full loops of the workload, at least 2 s.
const minRunTime = 2 * sysscale.Second

func experimentDuration(cfg *sysscale.Config) {
	cfg.Duration = 2 * cfg.Workload.TotalDuration()
	if cfg.Duration < minRunTime {
		cfg.Duration = minRunTime
	}
}

// builtinNames are the shipped SPEC, graphics and battery workloads.
func builtinNames() []string {
	names := sysscale.SPECNames()
	for _, suite := range [][]sysscale.Workload{sysscale.GraphicsSuite(), sysscale.BatterySuite()} {
		for _, w := range suite {
			names = append(names, w.Name)
		}
	}
	return names
}

// builtinTDPs vary the platform so builtin-named specs stay distinct.
var builtinTDPs = []sysscale.Watt{3.5, 4.5, 6, 9}

// buildCorpus returns n distinct service jobs in wire form,
// alternating an inline generated workload (even indices) with a
// builtin-named SPEC/graphics/battery workload (odd indices). It also
// returns the host time spent generating workloads.
func buildCorpus(seed uint64, tag string, n int) ([]*item, time.Duration, error) {
	ps := policies()
	nGen, nBuiltin := (n+1)/2, n/2
	t := time.Now()
	ws := sysscale.GenerateWorkloads(sysscale.DefaultGenConfig(deriveSeed(seed, tag, 0)), nGen)
	genTime := time.Since(t)

	names := builtinNames()
	combos := len(names) * len(ps) * len(builtinTDPs)
	if nBuiltin > combos {
		return nil, 0, fmt.Errorf("corpus of %d needs %d builtin specs; only %d distinct", n, nBuiltin, combos)
	}
	perm := rand.New(rand.NewPCG(seed, seedTag(tag))).Perm(combos)

	items := make([]*item, 0, n)
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		cfg := sysscale.DefaultConfig()
		builtin := ""
		if i%2 == 0 {
			cfg.Workload = ws[i/2]
			cfg.Policy = ps[(i/2)%len(ps)]
		} else {
			c := perm[i/2]
			builtin = names[c%len(names)]
			c /= len(names)
			cfg.Policy = ps[c%len(ps)]
			cfg.TDP = builtinTDPs[c/len(ps)]
			w, err := sysscale.BuiltinWorkload(builtin)
			if err != nil {
				return nil, 0, err
			}
			cfg.Workload = w
		}
		experimentDuration(&cfg)
		js, err := sysscale.EncodeSpec(cfg)
		if err != nil {
			return nil, 0, err
		}
		if builtin != "" {
			js.Workload = sysscale.WorkloadSpec{Builtin: builtin}
		}
		it, err := newItem(js)
		if err != nil {
			return nil, 0, err
		}
		if seen[it.fp] {
			return nil, 0, fmt.Errorf("corpus job %d duplicates an earlier job", i)
		}
		seen[it.fp] = true
		items = append(items, it)
	}
	return items, genTime, nil
}

// newItem completes a job from its wire spec: the config the server
// will decode it to, its body and its fingerprint.
func newItem(js sysscale.JobSpec) (*item, error) {
	cfg, err := sysscale.DecodeSpec(js)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(js)
	if err != nil {
		return nil, err
	}
	fp, err := sysscale.SpecFingerprint(js)
	if err != nil {
		return nil, err
	}
	return &item{cfg: cfg, spec: js, body: body, key: fp, fp: hex.EncodeToString(fp[:])}, nil
}

// sweepBody is the POST /v1/sweeps body for items: the JSON array of
// their specs.
func sweepBody(items []*item) []byte {
	b := []byte{'['}
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, it.body...)
	}
	return append(b, ']')
}
