package main

import (
	"fmt"
	"net/http"

	"revtr/internal/ip2as"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/netsim/topology"
	"revtr/internal/service"
)

// outcome is what verification learned about the timed phase's results.
type outcome struct {
	distinct   map[int]*service.Measurement
	complete   int
	comparable int // complete measurements with a ground-truth path
	wrong      int
	virtual    []float64 // seconds, per distinct measurement
	probes     uint64    // Σ probes over distinct measurements
	executed   int       // batch jobs that ran a measurement of their own
	cacheHits  int       // batch jobs resolved from the day cache at admission
	gaps       int
}

// finalStatus is the part of GET /api/v1/batch/{id} the check reads.
type finalStatus struct {
	Counts map[string]int `json:"counts"`
	Done   bool           `json:"done"`
	Jobs   []struct {
		Index  int                  `json:"index"`
		Src    string               `json:"src"`
		Dst    string               `json:"dst"`
		State  string               `json:"state"`
		Result *service.Measurement `json:"result"`
	} `json:"jobs"`
}

// verify is the correctness gate. Every failed check is recorded as a
// ledger problem, which fails the run:
//   - the job ledger: every job terminal exactly once, and submitted =
//     done + coalesced + failed + shed;
//   - every followed stream starts at the first event, has no gap and
//     ends with end/done;
//   - every result's src/dst matches its request, and complete paths
//     run from the destination to the source;
//   - jobs sharing a measurement report identical results.
//
// It also scores complete paths against the simulator's ground truth.
// The batch statuses are fetched after the timed phase, untimed.
func verify(s *server, w workload, l *ledger) outcome {
	o := outcome{distinct: map[int]*service.Measurement{}}
	submitted := 0
	for _, b := range l.batches {
		n := len(b.pairs)
		submitted += n
		o.gaps += b.gaps
		if b.gaps > 0 {
			l.problem("batch %s: %d gap events", b.id, b.gaps)
		}
		if b.endReason != "done" {
			l.problem("batch %s: stream ended with reason %q, want done", b.id, b.endReason)
		}
		if b.firstID != 1 {
			l.problem("batch %s: stream started at event %d, want 1", b.id, b.firstID)
		}
		if len(b.admit) != n {
			l.problem("batch %s: admission snapshot has %d jobs, want %d", b.id, len(b.admit), n)
		}
		unended := 0
		for j := 0; j < n; j++ {
			if b.nTerminal[j] != 1 {
				if unended == 0 {
					l.problem("batch %s job %d: %d terminal events, want 1", b.id, j, b.nTerminal[j])
				}
				unended++
			}
			switch b.final[j] {
			case "done", "failed":
				if b.running[j] == 0 {
					l.problem("batch %s job %d: %s without running", b.id, j, b.final[j])
				}
				o.executed++
			case "coalesced":
				if b.running[j] != 0 {
					l.problem("batch %s job %d: coalesced after running", b.id, j)
				}
			}
			if j < len(b.admit) && b.admit[j] == "coalesced" {
				o.cacheHits++
			}
		}
		if unended > 1 {
			l.problem("batch %s: %d of %d jobs without exactly one terminal event on the stream", b.id, unended, n)
		}
		var st finalStatus
		if _, err := s.call("GET", "/api/v1/batch/"+b.id, s.users[b.loop%len(s.users)], nil, &st, http.StatusOK); err != nil {
			l.problem("batch %s: final status: %v", b.id, err)
			continue
		}
		if !st.Done || len(st.Jobs) != n {
			l.problem("batch %s: final status done=%v with %d jobs, want done with %d", b.id, st.Done, len(st.Jobs), n)
			continue
		}
		sum := 0
		for _, c := range st.Counts {
			sum += c
		}
		if sum != n {
			l.problem("batch %s: state counts %v sum to %d, want %d", b.id, st.Counts, sum, n)
		}
		for j, js := range st.Jobs {
			p := b.pairs[j]
			if js.Index != j || js.Src != p.Src || js.Dst != p.Dst {
				l.problem("batch %s job %d: status names job %d %s>%s, want %s", b.id, j, js.Index, js.Src, js.Dst, p.key())
			}
			if js.State != b.final[j] {
				l.problem("batch %s job %d: status %q but stream ended it %q", b.id, j, js.State, b.final[j])
			}
			if js.State == "done" || js.State == "coalesced" {
				if js.Result == nil {
					l.problem("batch %s job %d: %s without a result", b.id, j, js.State)
					continue
				}
				l.results = append(l.results, jobResult{p, js.Result})
			}
		}
	}
	terminal := 0
	for _, n := range l.states {
		terminal += n
	}
	if w.batch {
		if terminal != submitted {
			l.problem("ledger: %d jobs submitted but done+coalesced+failed+shed = %d (%v)", submitted, terminal, l.states)
		}
	} else if terminal+l.httpFail != l.jobs {
		l.problem("ledger: %d requests but %d replies + %d refusals", l.jobs, terminal, l.httpFail)
	}

	for _, r := range l.results {
		m := r.m
		if m.Src != r.p.Src || m.Dst != r.p.Dst {
			l.problem("result %d is %s>%s, requested %s", m.ID, m.Src, m.Dst, r.p.key())
			continue
		}
		if prev, ok := o.distinct[m.ID]; ok {
			if prev.Src != m.Src || prev.Dst != m.Dst || prev.Status != m.Status || len(prev.Hops) != len(m.Hops) || prev.Probes != m.Probes {
				l.problem("measurement %d reported with two different contents", m.ID)
			}
			continue
		}
		o.distinct[m.ID] = m
	}
	for id, m := range o.distinct {
		o.probes += m.Probes
		o.virtual = append(o.virtual, float64(m.DurationUS)/1e6)
		switch m.Status {
		case "complete":
			o.complete++
			if len(m.Hops) == 0 || m.Hops[0].Addr != m.Dst || m.Hops[len(m.Hops)-1].Addr != m.Src {
				l.problem("measurement %d (%s>%s): complete path does not run from the destination to the source", id, m.Src, m.Dst)
				continue
			}
			comparable, wrong, err := scorePath(s, m)
			if err != nil {
				l.problem("measurement %d: %v", id, err)
				continue
			}
			if comparable {
				o.comparable++
				if wrong {
					o.wrong++
				}
			}
		case "aborted", "failed":
		default:
			l.problem("measurement %d: unknown status %q", id, m.Status)
		}
	}
	return o
}

// scorePath compares a complete measurement's AS path with the
// ground-truth reverse path, both mapped with the truth mapper: it is
// wrong when it is neither equal to nor a subsequence of the truth.
func scorePath(s *server, m *service.Measurement) (comparable, wrong bool, err error) {
	src, err1 := ipv4.ParseAddr(m.Src)
	dst, err2 := ipv4.ParseAddr(m.Dst)
	if err1 != nil || err2 != nil {
		return false, false, fmt.Errorf("bad endpoints %s>%s", m.Src, m.Dst)
	}
	h, ok := s.d.Topo.HostOf(dst)
	if !ok {
		return false, false, fmt.Errorf("destination %s is not a host", m.Dst)
	}
	truth := s.d.TrueReversePath(h, src)
	if truth == nil {
		return false, false, nil
	}
	addrs := make([]ipv4.Addr, 0, len(m.Hops))
	for _, hop := range m.Hops {
		a, err := ipv4.ParseAddr(hop.Addr)
		if err != nil {
			return false, false, fmt.Errorf("bad hop %q", hop.Addr)
		}
		addrs = append(addrs, a)
	}
	got := ip2as.ASPath(s.d.TruthMapper, addrs)
	want := s.d.Fabric.ASPath(truth)
	return true, !asSubsequence(got, want), nil
}

// asSubsequence reports whether sub appears within full in order; an
// equal path is a subsequence of itself.
func asSubsequence(sub, full []topology.ASN) bool {
	j := 0
	for _, x := range full {
		if j < len(sub) && sub[j] == x {
			j++
		}
	}
	return j == len(sub)
}

// crossCheck compares the client's ledger with the server's own
// counters, so the benchmark cannot silently mis-measure a layer.
func crossCheck(w workload, l *ledger, o outcome, dm delta, pool measure.Counters, archived int, tr *tracer) {
	eq := func(what string, got, want float64) {
		if got != want {
			l.problem("cross-check %s: server says %v, client ledger says %v", what, got, want)
		}
	}
	if w.batch {
		eq("service_batch_exec_total", dm.of("service_batch_exec_total"), float64(o.executed))
		eq("sched_coalesced_total", dm.of("sched_coalesced_total"), float64(l.states["coalesced"]))
		eq("sched_cache_hits_total", dm.of("sched_cache_hits_total"), float64(o.cacheHits))
		eq("sched_shed_total", dm.of("sched_shed_total"), float64(l.states["shed"]))
		eq(`sched_jobs_total{state="done"}`, dm.of(`sched_jobs_total{state="done"}`), float64(l.states["done"]))
	} else {
		eq("service_measure_total", dm.of("service_measure_total"), float64(l.jobs-l.httpFail))
	}
	eq("archived measurements", float64(archived), float64(len(o.distinct)))
	eq("engine measurements", engineMeasurements(dm), float64(len(o.distinct)))
	eq("pool probes (Σ result probes)", float64(pool.Total()), float64(o.probes))
	eq("probe_pool_batches_total (batch-size histogram count)", dm.of("probe_pool_batches_total"), dm.of("probe_pool_batch_size_count"))
	if pool.Total() > 0 && dm.of("probe_pool_batches_total") == 0 {
		l.problem("cross-check: %d probes issued in zero pool batches", pool.Total())
	}
	if tr == nil {
		return
	}
	// The traced backend must leave the dispatch path unchanged: batch
	// jobs through the asynchronous streaming entry point, interactive
	// requests through the blocking one, one call per engine measurement.
	want := "measure"
	if w.batch {
		want = "measure_async_stream"
	}
	tr.mu.Lock()
	calls := map[string]int{}
	for k, v := range tr.calls {
		calls[k] = v
	}
	tr.mu.Unlock()
	for k, v := range calls {
		if k != want {
			l.problem("traced backend: %d calls through %s, want only %s", v, k, want)
		}
	}
	eq("traced backend calls", float64(calls[want]), engineMeasurements(dm))
}
