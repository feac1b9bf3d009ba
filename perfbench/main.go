// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator, the engine and the sweepd service in
// this process, checks that every output is correct, and prints every
// metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of
// BENCHMARK.json, measured untraced. With -trace 1 they are the
// per-layer metrics, from a traced run that records spans and a CPU
// profile (see README.md for both formats).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload mc-cold --seed 1 --seconds 20 --trace 0
//
// A run exits 0 when every output was correct, 1 when the correctness
// gate failed (the JSON line still prints, with "correct": false), and
// 2 on a usage or set-up error (nothing printed on standard output).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// defaultSeed is the seed whose result digests are stored in
// digests.go.
const defaultSeed = 1

func main() {
	var (
		name    = flag.String("workload", "", "workload: mc-cold or svc-cold")
		seed    = flag.Uint64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		out     = flag.String("out", ".bench_build/perfbench-out", "directory for span files, CPU profiles and disk tiers")
	)
	flag.Parse()
	o := defaultOptions()
	o.seed, o.measure, o.trace, o.outDir = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(*name, w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.result.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}
