package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"revtr/internal/measure"
)

// config sizes one benchmark run. The defaults are the benchmark; the
// smoke test shrinks them.
type config struct {
	Workload     string
	Seed         int64
	Seconds      int
	Trace        int
	WorkDir      string
	Commit       string
	SourceDigest string

	// ASes and Sites size the simulated Internet; its seed is worldSeed.
	ASes, Sites int
	// Rounds is the number of set-ups in an untraced run, each followed
	// by one timed phase; medians over rounds are reported.
	Rounds int
	// PairLimit caps the distinct-pair universe (0 = every pair).
	PairLimit int
	// BulkBatch is the largest bulk submission; the universe is split
	// into near-equal submissions of at most this many pairs.
	BulkBatch int
	// LayerPairs bounds the pairs each direct-call layer phase uses.
	LayerPairs int
}

func defaultConfig() config {
	return config{
		ASes:       1000,
		Sites:      30,
		Rounds:     3,
		BulkBatch:  1000,
		LayerPairs: 1500,
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are reported by untraced runs; perLayer by traced runs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"probes_per_job", "count"},
	{"virtual_p50_s", "s"},
	{"virtual_p99_s", "s"},
	{"complete_frac", "ratio"},
	{"wrong_path_frac", "ratio"},
	{"peak_heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"revtr.build_s", "s"},
	{"revtr.survey_s", "s"},
	{"revtr.register_source_s", "s"},
	{"netsim.rr_ping_us", "us"},
	{"netsim.traceroute_us", "us"},
	{"netsim.allocs_per_probe", "count"},
	{"netsim.tree_us", "us"},
	{"probe.rr_per_job", "count"},
	{"probe.spoof_rr_per_job", "count"},
	{"probe.traceroute_per_job", "count"},
	{"probe.ping_per_job", "count"},
	{"probe.batches_per_job", "count"},
	{"probe.batch_wall_us_mean", "us"},
	{"probe.retries_per_job", "count"},
	{"core.engine_us_per_revtr", "us"},
	{"core.allocs_per_revtr", "count"},
	{"core.engine_async_us_per_revtr", "us"},
	{"core.alloc_kb_per_revtr", "KB"},
	{"core.cache_hit_frac", "ratio"},
	{"core.segment_splice_frac", "ratio"},
	{"core.spoof_batches_per_revtr", "count"},
	{"core.stage_atlas_frac", "ratio"},
	{"core.stage_direct_rr_frac", "ratio"},
	{"core.stage_spoofed_rr_frac", "ratio"},
	{"core.stage_symmetry_frac", "ratio"},
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.queue_wait_ms_p99", "ms"},
	{"sched.run_ms_p50", "ms"},
	{"sched.dispatch_us_mean", "us"},
	{"sched.reuse_frac", "ratio"},
	{"sched.shed", "count"},
	{"store.append_us", "us"},
	{"store.compact_ms", "ms"},
	{"store.compactions_per_kjob", "count"},
	{"store.wal_bytes_per_record", "bytes"},
	{"stream.events_per_job", "count"},
	{"stream.gaps", "count"},
	{"service.backend_us_p50", "us"},
	{"service.overhead_us_per_job", "us"},
	{"service.submit_ms_p50", "ms"},
	{"service.response_bytes_per_job", "bytes"},
	{"runtime.cpu_ms_per_job", "ms"},
	{"runtime.allocs_per_job", "count"},
	{"runtime.alloc_kb_per_job", "KB"},
	{"runtime.gc_cycles_per_kjob", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.goroutines_peak", "count"},
	{"trace.overhead_frac", "ratio"},
	{"e2e.latency_p50_ms", "ms"},
	{"e2e.latency_p99_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pass is one freshly assembled server and its timed phase.
type pass struct {
	assemble, register time.Duration
	jobs, failed       int
	jobsPerS, p50, p99 float64
	probesPerJob       float64
	virtP50, virtP99   float64
	completeFrac       float64
	wrongFrac          float64
	peakHeapMB         float64
	problems           []string

	rt             runtimeSnap // timed-phase deltas
	goroutinesPeak int
	layers         map[string]float64 // traced passes only
}

// run executes a whole benchmark run. An untraced run makes cfg.Rounds
// rounds: build a world, assemble a server on it (together the set-up),
// run the timed phase. A traced run builds one world and runs an
// untraced and then a traced pass on it, each on a fresh server.
func run(cfg config) (result, error) {
	w := workloads[cfg.Workload]
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return result{}, fmt.Errorf("work dir: %w", err)
	}
	var passes []pass
	var setups []float64
	if cfg.Trace == 0 {
		for i := 0; i < cfg.Rounds; i++ {
			wd := buildWorld(cfg)
			r, err := runPass(cfg, w, wd, false)
			if err != nil {
				return result{}, err
			}
			setups = append(setups, (wd.build + wd.survey + r.assemble).Seconds())
			passes = append(passes, r)
		}
	} else {
		wd := buildWorld(cfg)
		plain, err := runPass(cfg, w, wd, false)
		if err != nil {
			return result{}, err
		}
		traced, err := runPass(cfg, w, wd, true)
		if err != nil {
			return result{}, err
		}
		addUntracedLayers(traced.layers, wd, plain, traced)
		passes = []pass{plain, traced}
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, r := range passes {
		res.Attempted += r.jobs
		res.Failed += r.failed
		if len(r.problems) > 0 {
			res.Correct = false
			for i, p := range r.problems {
				if i == 20 {
					fmt.Fprintf(os.Stderr, "perfbench: ... %d more problems\n", len(r.problems)-i)
					break
				}
				fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
			}
		}
	}
	if cfg.Trace == 0 {
		pick := func(f func(r pass) float64) float64 {
			xs := make([]float64, len(passes))
			for i, r := range passes {
				xs[i] = f(r)
			}
			return median(xs)
		}
		vals := map[string]float64{
			"setup_s":         median(setups),
			"jobs_per_s":      pick(func(r pass) float64 { return r.jobsPerS }),
			"probes_per_job":  pick(func(r pass) float64 { return r.probesPerJob }),
			"virtual_p50_s":   pick(func(r pass) float64 { return r.virtP50 }),
			"virtual_p99_s":   pick(func(r pass) float64 { return r.virtP99 }),
			"complete_frac":   pick(func(r pass) float64 { return r.completeFrac }),
			"wrong_path_frac": pick(func(r pass) float64 { return r.wrongFrac }),
			"peak_heap_mb":    pick(func(r pass) float64 { return r.peakHeapMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		layers := passes[1].layers
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	return res, nil
}

// runPass assembles a fresh server over the world, runs the timed
// phase, and checks and measures it.
func runPass(cfg config, w workload, wd *world, traced bool) (pass, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	storeDir, err := os.MkdirTemp(cfg.WorkDir, "store-")
	if err != nil {
		return pass{}, err
	}
	defer os.RemoveAll(storeDir)
	s, err := startServer(cfg, w, wd, tr, storeDir)
	if err != nil {
		return pass{}, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	p := w.inputs(cfg, s.d, s.sources)
	if p.jobs() == 0 {
		return pass{}, fmt.Errorf("workload %s generated no jobs", w.name)
	}

	before, err := s.scrape()
	if err != nil {
		return pass{}, err
	}
	pool0 := s.d.Pool.Counters()
	archived0 := s.reg.Stats().Measurements
	runtime.GC()
	rt0 := readRuntime()
	smp := startSampler()
	l := newLedger()
	t0 := time.Now()
	driveErr := drive(s, w, p, l)
	wall := time.Since(t0)
	smp.finish()
	rt1 := readRuntime()
	if driveErr != nil {
		return pass{}, driveErr
	}
	after, err := s.scrape()
	if err != nil {
		return pass{}, err
	}
	dm := delta{before, after}
	pool := s.d.Pool.Counters().Sub(pool0)

	o := verify(s, w, l)
	crossCheck(w, l, o, dm, pool, s.reg.Stats().Measurements-archived0, tr)

	r := pass{assemble: s.assemble, register: s.register, problems: l.problems}
	terminal := 0
	for _, n := range l.states {
		terminal += n
	}
	r.jobs = l.jobs
	r.failed = l.httpFail + l.states["failed"] + l.states["shed"] + o.gaps + len(l.problems)
	r.jobsPerS = float64(terminal) / wall.Seconds()
	r.p50 = quantile(l.latencyMS, 0.5)
	r.p99 = quantile(l.latencyMS, 0.99)
	r.probesPerJob = ratio(float64(pool.Total()), float64(l.jobs))
	r.virtP50 = quantile(o.virtual, 0.5)
	r.virtP99 = quantile(o.virtual, 0.99)
	r.completeFrac = ratio(float64(o.complete), float64(len(o.distinct)))
	r.wrongFrac = ratio(float64(o.wrong), float64(o.comparable))
	r.peakHeapMB = float64(smp.peakHeap) / (1 << 20)
	r.goroutinesPeak = smp.peakGorou
	r.rt = runtimeSnap{
		mallocs:    rt1.mallocs - rt0.mallocs,
		totalAlloc: rt1.totalAlloc - rt0.totalAlloc,
		numGC:      rt1.numGC - rt0.numGC,
		cpu:        rt1.cpu - rt0.cpu,
		gcCPU:      rt1.gcCPU - rt0.gcCPU,
		totalCPU:   rt1.totalCPU - rt0.totalCPU,
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s pass: assembly %.2fs, %d jobs in %.2fs (%.0f/s), %d distinct measurements "+
		"(probes/job %.4f, virtual p50 %.6fs, complete %d, wrong %d of %d), peak heap %.0f MB, %d GCs, cpu %.2f ms/job, %d problems\n",
		w.name, s.assemble.Seconds(), l.jobs, wall.Seconds(), r.jobsPerS, len(o.distinct),
		r.probesPerJob, r.virtP50, o.complete, o.wrong, o.comparable, r.peakHeapMB, r.rt.numGC,
		float64(r.rt.cpu)/float64(time.Millisecond)/float64(l.jobs), len(l.problems))

	if traced {
		tr.clientSpans(l)
		r.layers = map[string]float64{}
		tracedLayers(r.layers, s, l, o, dm, pool, terminal)
		if err := directLayers(r.layers, cfg, s, w, p, o, tr); err != nil {
			return pass{}, err
		}
		name := filepath.Join(cfg.WorkDir, fmt.Sprintf("spans-%s-%d.ndjson", w.name, cfg.Seed))
		if err := tr.write(name); err != nil {
			return pass{}, fmt.Errorf("write spans: %w", err)
		}
	}
	return r, nil
}

// tracedLayers derives the per-layer metrics the traced timed phase
// itself yields: /metrics deltas, the client ledger and the spans.
func tracedLayers(m map[string]float64, s *server, l *ledger, o outcome, dm delta, pool measure.Counters, terminal int) {
	jobs := float64(terminal)
	m["probe.rr_per_job"] = ratio(float64(pool.RR), jobs)
	m["probe.spoof_rr_per_job"] = ratio(float64(pool.SpoofRR), jobs)
	m["probe.traceroute_per_job"] = ratio(float64(pool.Traceroute), jobs)
	m["probe.ping_per_job"] = ratio(float64(pool.Ping), jobs)
	m["probe.batches_per_job"] = ratio(dm.of("probe_pool_batches_total"), jobs)
	m["probe.batch_wall_us_mean"] = ratio(dm.of("probe_pool_batch_wall_us_sum"), dm.of("probe_pool_batch_wall_us_count"))
	m["probe.retries_per_job"] = ratio(dm.of("probe_retries_total"), jobs)

	revtrs := engineMeasurements(dm)
	hits := dm.of("engine_cache_rr_hits_total") + dm.of("engine_cache_tr_hits_total")
	misses := dm.of("engine_cache_rr_misses_total") + dm.of("engine_cache_tr_misses_total")
	m["core.cache_hit_frac"] = ratio(hits, hits+misses)
	m["core.segment_splice_frac"] = ratio(dm.of("engine_segment_splices_total"), revtrs)
	m["core.spoof_batches_per_revtr"] = ratio(dm.of("engine_spoof_batches_total"), revtrs)
	stages := map[string]string{
		"core.stage_atlas_frac":      "engine_stage_atlas_intersect_total",
		"core.stage_direct_rr_frac":  "engine_stage_direct_rr_total",
		"core.stage_spoofed_rr_frac": "engine_stage_spoofed_rr_total",
		"core.stage_symmetry_frac":   "engine_stage_symmetry_total",
	}
	allStages := dm.of("engine_stage_timestamp_total")
	for _, series := range stages {
		allStages += dm.of(series)
	}
	for name, series := range stages {
		m[name] = ratio(dm.of(series), allStages)
	}

	var wait, run []float64
	for _, b := range l.batches {
		for j := range b.pairs {
			if b.running[j] == 0 || b.terminal[j] == 0 {
				continue
			}
			wait = append(wait, ms(b.running[j]-b.submit))
			run = append(run, ms(b.terminal[j]-b.running[j]))
		}
	}
	m["sched.queue_wait_ms_p50"] = quantile(wait, 0.5)
	m["sched.queue_wait_ms_p99"] = quantile(wait, 0.99)
	m["sched.run_ms_p50"] = quantile(run, 0.5)
	m["sched.dispatch_us_mean"] = ratio(dm.of("sched_dispatch_wall_us_sum"), dm.of("sched_dispatch_wall_us_count"))
	m["sched.reuse_frac"] = ratio(float64(l.states["coalesced"]), jobs)
	m["sched.shed"] = dm.of("sched_shed_total")

	m["store.compactions_per_kjob"] = 1000 * ratio(dm.of("store_compactions_total"), jobs)
	m["stream.events_per_job"] = ratio(dm.prefix("stream_events_total"), jobs)
	m["stream.gaps"] = dm.of("stream_gap_events_total") + float64(o.gaps)

	spans := s.wrap.tr.backendSpans()
	var backendUS, overheadUS []float64
	for _, sp := range spans {
		backendUS = append(backendUS, float64(sp.End-sp.Start)/1e3)
	}
	for _, r := range l.reqs {
		if sp, ok := spans[r.p.key()]; ok {
			overheadUS = append(overheadUS, float64(r.end-r.start)/1e3-float64(sp.End-sp.Start)/1e3)
		}
	}
	// A batch job's client time is not one round trip; its overhead is
	// the time from the backend returning to the client reading the
	// job's terminal event: archive, WAL append, publish and delivery.
	off := l.epoch.Sub(s.wrap.tr.epoch)
	for _, b := range l.batches {
		for j, p := range b.pairs {
			sp, ok := spans[p.key()]
			if !ok || b.running[j] == 0 || b.terminal[j] == 0 {
				continue
			}
			overheadUS = append(overheadUS, float64(int64(off+b.terminal[j])-sp.End)/1e3)
		}
	}
	m["service.backend_us_p50"] = quantile(backendUS, 0.5)
	m["service.overhead_us_per_job"] = mean(overheadUS)
	m["service.submit_ms_p50"] = quantile(l.submitMS, 0.5)
	m["service.response_bytes_per_job"] = ratio(float64(l.bytes), jobs)
}

// addUntracedLayers fills the metrics taken from the world build and the
// untraced pass of a traced run: set-up parts, runtime costs, and the
// tracing overhead.
func addUntracedLayers(m map[string]float64, wd *world, plain, traced pass) {
	m["revtr.build_s"] = wd.build.Seconds()
	m["revtr.survey_s"] = wd.survey.Seconds()
	m["revtr.register_source_s"] = plain.register.Seconds() / nSources
	jobs := float64(plain.jobs)
	m["runtime.cpu_ms_per_job"] = ratio(float64(plain.rt.cpu)/float64(time.Millisecond), jobs)
	m["runtime.allocs_per_job"] = ratio(float64(plain.rt.mallocs), jobs)
	m["runtime.alloc_kb_per_job"] = ratio(float64(plain.rt.totalAlloc)/1024, jobs)
	m["runtime.gc_cycles_per_kjob"] = 1000 * ratio(float64(plain.rt.numGC), jobs)
	m["runtime.gc_cpu_frac"] = ratio(plain.rt.gcCPU, plain.rt.totalCPU)
	m["runtime.goroutines_peak"] = float64(plain.goroutinesPeak)
	m["trace.overhead_frac"] = 1 - ratio(traced.jobsPerS, plain.jobsPerS)
	m["e2e.latency_p50_ms"] = plain.p50
	m["e2e.latency_p99_ms"] = plain.p99
}

// engineMeasurements is the number of measurements the engine finished.
func engineMeasurements(dm delta) float64 {
	n := 0.0
	for _, o := range []string{"complete", "aborted", "failed", "cancelled"} {
		n += dm.of("engine_measure_" + o + "_total")
	}
	return n
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
