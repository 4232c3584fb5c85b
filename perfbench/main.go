// Command perfbench is the repository's end-to-end benchmark. It builds
// the revtr-server default world, assembles the server exactly as
// cmd/revtr-server does, serves it on loopback, and drives one of three
// workloads against it over HTTP:
//
//	interactive  2 closed-loop clients, one POST /api/v1/revtr per distinct pair
//	bulk         one user, fixed-size POST /api/v1/batch submissions of distinct
//	             pairs, each followed through /events to its end
//	shared       2 users, closed loops of small Zipf-drawn batches from a
//	             popular universe, so most jobs coalesce or hit the day cache
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) reports per-layer metrics. The last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// line before it records the environment. See README.md for the metric
// definitions and STEADINESS.md for how the run sizes were chosen.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload bulk --seed 1 --seconds 12 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.Workload, "workload", "", "workload: interactive, bulk or shared")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for every generated input (pair order, submission composition, Zipf draws)")
	flag.IntVar(&cfg.Seconds, "seconds", 12, "nominal measured seconds per run (the work per run is fixed; this is recorded, not enforced)")
	flag.IntVar(&cfg.Trace, "trace", 0, "1 = one traced run reporting per-layer metrics; 0 = untraced end-to-end run")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build/work", "scratch directory: stores (removed when the run ends) and span files")
	flag.StringVar(&cfg.Commit, "commit", "unknown", "commit of the measured tree, recorded in the environment line")
	flag.StringVar(&cfg.SourceDigest, "source-digest", "unknown", "digest of the measured Go sources, recorded in the environment line")
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if _, ok := workloads[cfg.Workload]; !ok {
		fatalf("unknown workload %q (want interactive, bulk or shared)", cfg.Workload)
	}
	if cfg.Trace != 0 && cfg.Trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if cfg.Seconds < 1 {
		fatalf("-seconds must be at least 1")
	}

	env := environment(cfg)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	res, err := run(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// environment records what the numbers were measured on.
func environment(cfg config) map[string]any {
	return map[string]any{
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        cfg.Commit,
		"source_digest": cfg.SourceDigest,
		"seed":          cfg.Seed,
		"world_seed":    worldSeed,
		"workload":      cfg.Workload,
		"trace":         cfg.Trace,
		"seconds":       cfg.Seconds,
		"rounds":        cfg.Rounds,
		"ases":          cfg.ASes,
		"sites":         cfg.Sites,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
