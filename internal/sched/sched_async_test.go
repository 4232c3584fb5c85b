package sched_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

// TestRevokePurgesDayCache: revoking a user must also purge their
// entries from the day cache. Before the fix, a revoked user's results
// kept resolving new submissions — their own and coalescing
// strangers' — until ResetDay: the executor here would run only once
// and bob's job would report coalesced instead of done.
func TestRevokePurgesDayCache(t *testing.T) {
	ex := newPureExec()
	o := obs.New()
	s := sched.New(spawned(ex.exec), sched.Options{MaxInFlight: 2, Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	src, dst := addr(1), addr(100)
	st := mustSubmit(t, s, "alice", specs(src, dst))
	waitBatch(t, s, st.ID)
	if n := ex.callsFor(src, dst); n != 1 {
		t.Fatalf("executor calls = %d, want 1", n)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d after first measurement, want 1", s.CacheLen())
	}

	s.Revoke("alice")
	if s.CacheLen() != 0 {
		t.Fatalf("revoke left %d day-cache entries serving the revoked user's results", s.CacheLen())
	}
	if got := o.Counter("sched_cache_purged_total").Value(); got != 1 {
		t.Fatalf("sched_cache_purged_total = %d, want 1", got)
	}

	// A new submission of the same pair must drive its own measurement.
	st2 := mustSubmit(t, s, "bob", specs(src, dst))
	st2 = waitBatch(t, s, st2.ID)
	if st2.Counts["done"] != 1 {
		t.Fatalf("post-revoke resubmission counts = %v, want 1 done", st2.Counts)
	}
	if n := ex.callsFor(src, dst); n != 2 {
		t.Fatalf("revoked user's cached result resolved a new submission (executor calls = %d, want 2)", n)
	}

	// Other users' cache entries survive a revocation.
	s.Revoke("alice")
	if s.CacheLen() != 1 {
		t.Fatalf("revoking alice purged bob's entry (cache len = %d, want 1)", s.CacheLen())
	}
}

// TestAsyncDispatchBoundsInFlight: the scheduler runs jobs through one
// dispatcher bounded by MaxInFlight
// started-but-unfinished jobs; completions arriving from a foreign
// goroutine resolve jobs and open dispatch slots.
func TestAsyncDispatchBoundsInFlight(t *testing.T) {
	const maxInFlight = 4
	const jobs = 32

	type pendingJob struct {
		src, dst ipv4.Addr
		done     func(res any, err error)
	}
	completions := make(chan pendingJob, jobs)
	var inflight, peak atomic.Int64
	execAsync := func(ctx context.Context, job sched.JobRef, done func(res any, err error)) {
		n := inflight.Add(1)
		for {
			m := peak.Load()
			if n <= m || peak.CompareAndSwap(m, n) {
				break
			}
		}
		completions <- pendingJob{src: job.Src, dst: job.Dst, done: done}
	}
	o := obs.New()
	s := sched.New(execAsync, sched.Options{MaxInFlight: maxInFlight, Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	// The completer stands in for the probe pool's executor goroutines:
	// it finishes jobs out-of-band with a result derived from the pair.
	go func() {
		for p := range completions {
			inflight.Add(-1)
			p.done(fmt.Sprintf("r:%s>%s", p.src, p.dst), nil)
		}
	}()

	var sp []sched.JobSpec
	for i := uint32(0); i < jobs; i++ {
		sp = append(sp, sched.JobSpec{Src: addr(1), Dst: addr(200 + i)})
	}
	st := mustSubmit(t, s, "alice", sp)
	st = waitBatch(t, s, st.ID)

	if st.Counts["done"] != jobs {
		t.Fatalf("counts = %v, want %d done", st.Counts, jobs)
	}
	for _, j := range st.Jobs {
		want := "r:" + j.Src + ">" + j.Dst
		if j.Result != want {
			t.Fatalf("job %d result = %v, want %q", j.Index, j.Result, want)
		}
	}
	if p := peak.Load(); p > maxInFlight {
		t.Fatalf("observed %d concurrent in-flight jobs, cap is %d", p, maxInFlight)
	}
	cancel()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(completions)
}

// TestAsyncExecPanicFailsJob: a synchronous panic inside the ExecAsync
// callback fails that job without killing the dispatcher.
func TestAsyncExecPanicFailsJob(t *testing.T) {
	execAsync := func(ctx context.Context, job sched.JobRef, done func(res any, err error)) {
		if job.Dst == addr(300) {
			panic("boom")
		}
		done("ok", nil)
	}
	s := sched.New(execAsync, sched.Options{Obs: obs.New()})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	st := mustSubmit(t, s, "alice", specs(addr(1), addr(300), addr(301)))
	st = waitBatch(t, s, st.ID)
	if st.Counts["failed"] != 1 || st.Counts["done"] != 1 {
		t.Fatalf("counts = %v, want 1 failed + 1 done", st.Counts)
	}
	for _, j := range st.Jobs {
		if j.Dst == addr(300).String() && !strings.Contains(j.Error, "exec panic") {
			t.Fatalf("panicked job error = %q, want exec panic", j.Error)
		}
	}
}
