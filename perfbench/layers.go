package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/netsim/bgp"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/store"
)

// directLayers times single layers through their public functions on
// the traced round's deployment, over the pairs the workload used:
// the simulator's probes and BGP trees, the engine alone (blocking and
// asynchronous), and the measurement store.
func directLayers(m map[string]float64, cfg config, s *server, w workload, p plan, o outcome, tr *tracer) error {
	pairs := layerPairs(p, cfg.LayerPairs)
	type job struct {
		src  core.Source
		host *topology.Host
		dst  ipv4.Addr
	}
	var jobs []job
	for _, pr := range pairs {
		srcAddr, err1 := ipv4.ParseAddr(pr.Src)
		dst, err2 := ipv4.ParseAddr(pr.Dst)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad pair %s", pr.key())
		}
		tr.mu.Lock()
		src, ok := tr.sources[srcAddr]
		tr.mu.Unlock()
		h, hok := s.d.Topo.HostOf(dst)
		if !ok || !hok {
			return fmt.Errorf("pair %s: unknown source or destination", pr.key())
		}
		jobs = append(jobs, job{src, h, dst})
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no pairs for the layer phases")
	}
	n := float64(len(jobs))

	// netsim: the serial prober's RR ping and traceroute, then cold BGP
	// trees toward the workload's destination ASes.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0 := s.d.Prober.Count
	t0 := time.Now()
	for _, j := range jobs {
		s.d.Prober.RRPing(j.src.Agent, j.dst)
	}
	t1 := time.Now()
	for _, j := range jobs {
		s.d.Prober.Traceroute(j.src.Agent, j.dst)
	}
	t2 := time.Now()
	runtime.ReadMemStats(&ms1)
	probes := s.d.Prober.Count.Sub(c0).Total()
	m["netsim.rr_ping_us"] = float64(t1.Sub(t0).Microseconds()) / n
	m["netsim.traceroute_us"] = float64(t2.Sub(t1).Microseconds()) / n
	m["netsim.allocs_per_probe"] = ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(probes))

	seen := map[topology.ASN]bool{}
	var ases []topology.ASN
	for _, j := range jobs {
		if !seen[j.host.AS] {
			seen[j.host.AS] = true
			ases = append(ases, j.host.AS)
		}
	}
	sort.Slice(ases, func(i, k int) bool { return ases[i] < ases[k] })
	cold := bgp.NewRouting(s.d.Topo, bgp.DefaultTieBreak(worldSeed), 128)
	t0 = time.Now()
	for _, asn := range ases {
		cold.TreeTo(asn)
	}
	m["netsim.tree_us"] = float64(time.Since(t0).Microseconds()) / float64(len(ases))

	// core: a fresh engine with the workload's options, blocking driver.
	ctx := context.Background()
	eng := s.d.Engine(engineOptions(w))
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for _, j := range jobs {
		eng.MeasureReverse(ctx, j.src, j.dst)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["core.engine_us_per_revtr"] = float64(el.Microseconds()) / n
	m["core.allocs_per_revtr"] = float64(ms1.Mallocs-ms0.Mallocs) / n

	// core: the asynchronous driver with a whole bulk submission in
	// flight at once, as the batch scheduler runs it.
	eng = s.d.Engine(engineOptions(w))
	depth := cfg.BulkBatch
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	for lo := 0; lo < len(jobs); lo += depth {
		var wg sync.WaitGroup
		for _, j := range jobs[lo:min(lo+depth, len(jobs))] {
			wg.Add(1)
			eng.MeasureAsync(ctx, j.src, j.dst, func(*core.Result) { wg.Done() })
		}
		wg.Wait()
	}
	el = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["core.engine_async_us_per_revtr"] = float64(el.Microseconds()) / n
	m["core.alloc_kb_per_revtr"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / n

	return storeLayer(m, cfg, o)
}

// engineOptions are the engine options the workload's server runs
// with, with a fresh segment store when it has one.
func engineOptions(w workload) core.Options {
	opts := core.Revtr20Options()
	if w.segments {
		opts.SegmentStore = segments.New(segments.Options{TTLUS: (24 * time.Hour).Microseconds()})
	}
	return opts
}

// layerPairs takes up to n distinct pairs in the order the workload
// first submitted them.
func layerPairs(p plan, n int) []pair {
	seen := map[string]bool{}
	var out []pair
	add := func(pr pair) {
		if len(out) < n && !seen[pr.key()] {
			seen[pr.key()] = true
			out = append(out, pr)
		}
	}
	for _, pr := range p.queue {
		add(pr)
	}
	for _, loop := range p.loops {
		for _, b := range loop {
			for _, pr := range b {
				add(pr)
			}
		}
	}
	return out
}

// storeLayer appends the round's archived measurements to fresh stores:
// one with the default compaction threshold for the per-append cost,
// one that never compacts on its own for the WAL size and a timed
// explicit compaction.
func storeLayer(m map[string]float64, cfg config, o outcome) error {
	ids := make([]int, 0, len(o.distinct))
	for id := range o.distinct {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	if len(ids) == 0 {
		return fmt.Errorf("no archived measurements for the store phase")
	}
	appendAll := func(lg *store.Log) ([]float64, error) {
		us := make([]float64, 0, len(ids))
		for _, id := range ids {
			rec := *o.distinct[id]
			t := time.Now()
			_, err := lg.Append(func(id uint64) any {
				rec.ID = int(id)
				return &rec
			})
			us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
			if err != nil {
				return nil, err
			}
		}
		return us, nil
	}

	dir, err := os.MkdirTemp(cfg.WorkDir, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	us, err := appendAll(lg)
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store phase: %w", err)
	}
	m["store.append_us"] = median(us)

	dir2, err := os.MkdirTemp(cfg.WorkDir, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir2)
	lg, err = store.Open(dir2, store.Options{MaxWALBytes: 1 << 40})
	if err != nil {
		return err
	}
	defer lg.Close()
	if _, err := appendAll(lg); err != nil {
		return fmt.Errorf("store phase: %w", err)
	}
	m["store.wal_bytes_per_record"] = float64(lg.WALBytes()) / float64(len(ids))
	t := time.Now()
	if err := lg.Compact(); err != nil {
		return fmt.Errorf("store phase: compact: %w", err)
	}
	m["store.compact_ms"] = ms(time.Since(t))
	return nil
}
