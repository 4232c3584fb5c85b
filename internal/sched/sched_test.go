package sched_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

func addr(n uint32) ipv4.Addr { return ipv4.Addr(0x0a000000 + n) }

// pureExec returns a deterministic result computed only from (src, dst)
// and counts invocations per key — the reference executor for
// coalescing and bit-identity assertions.
type pureExec struct {
	mu    sync.Mutex
	calls map[string]int
	total atomic.Int64
}

func newPureExec() *pureExec { return &pureExec{calls: map[string]int{}} }

func (e *pureExec) exec(ctx context.Context, job sched.JobRef) (any, error) {
	src, dst := job.Src, job.Dst
	k := src.String() + ">" + dst.String()
	e.mu.Lock()
	e.calls[k]++
	e.mu.Unlock()
	e.total.Add(1)
	return fmt.Sprintf("path:%s>%s:hops=%d", src, dst, (uint32(src)^uint32(dst))%16), nil
}

// blockingExec is a test executor that runs one job to completion on
// the calling goroutine.
type blockingExec func(ctx context.Context, job sched.JobRef) (any, error)

// inline adapts a blocking executor to sched.ExecAsync by running it on
// the dispatcher goroutine: jobs run one at a time, in dispatch order,
// and a panic reaches the dispatcher's recover synchronously.
func inline(exec blockingExec) sched.ExecAsync {
	return func(ctx context.Context, job sched.JobRef, done func(any, error)) {
		done(exec(ctx, job))
	}
}

// spawned adapts a blocking executor to sched.ExecAsync by running each
// job on its own goroutine, so up to Options.MaxInFlight jobs run
// concurrently.
func spawned(exec blockingExec) sched.ExecAsync {
	return func(ctx context.Context, job sched.JobRef, done func(any, error)) {
		go func() { done(exec(ctx, job)) }()
	}
}

func (e *pureExec) callsFor(src, dst ipv4.Addr) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls[src.String()+">"+dst.String()]
}

func specs(src ipv4.Addr, dsts ...ipv4.Addr) []sched.JobSpec {
	out := make([]sched.JobSpec, len(dsts))
	for i, d := range dsts {
		out[i] = sched.JobSpec{Src: src, Dst: d}
	}
	return out
}

func mustSubmit(t *testing.T, s *sched.Scheduler, user string, sp []sched.JobSpec) sched.BatchStatus {
	t.Helper()
	st, err := s.Submit(context.Background(), user, sp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return st
}

func waitBatch(t *testing.T, s *sched.Scheduler, id string) sched.BatchStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

// TestCoalescingDuplicateHeavyBatch: duplicates coalesce onto one
// measurement each — the executor runs once per unique pair no matter
// how many jobs name it, and coalesced + cache-hit jobs carry the
// leader's result.
func TestCoalescingDuplicateHeavyBatch(t *testing.T) {
	ex := newPureExec()
	o := obs.New()
	s := sched.New(spawned(ex.exec), sched.Options{MaxInFlight: 4, Obs: o})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)

	src := addr(1)
	const uniq, dup = 10, 5
	var sp []sched.JobSpec
	for rep := 0; rep < dup; rep++ {
		for i := uint32(0); i < uniq; i++ {
			sp = append(sp, sched.JobSpec{Src: src, Dst: addr(100 + i)})
		}
	}
	st := mustSubmit(t, s, "alice", sp)
	st = waitBatch(t, s, st.ID)

	if n := ex.total.Load(); n != uniq {
		t.Fatalf("executor ran %d times, want %d (duplicates must coalesce)", n, uniq)
	}
	if st.Counts["done"] != uniq || st.Counts["coalesced"] != uniq*(dup-1) {
		t.Fatalf("counts = %v", st.Counts)
	}
	for _, j := range st.Jobs {
		if j.Result == nil {
			t.Fatalf("job %d (%s) has no result", j.Index, j.State)
		}
	}
	if got := o.Counter("sched_coalesced_total").Value(); got != uniq*(dup-1) {
		t.Fatalf("sched_coalesced_total = %d, want %d", got, uniq*(dup-1))
	}

	// A second identical batch resolves entirely from the day cache.
	st2 := mustSubmit(t, s, "bob", sp[:uniq])
	if st2.Counts["coalesced"] != uniq || !st2.Done {
		t.Fatalf("cache-backed batch: %v done=%v", st2.Counts, st2.Done)
	}
	if ex.total.Load() != uniq {
		t.Fatal("cache hit re-ran the executor")
	}
	if o.Counter("sched_cache_hits_total").Value() != uniq {
		t.Fatalf("cache hits = %d", o.Counter("sched_cache_hits_total").Value())
	}

	// ResetDay ends the reuse window: the same pairs measure again.
	s.ResetDay()
	if s.CacheLen() != 0 {
		t.Fatal("ResetDay left cache entries")
	}
	st3 := mustSubmit(t, s, "bob", sp[:uniq])
	st3 = waitBatch(t, s, st3.ID)
	if st3.Counts["done"] != uniq {
		t.Fatalf("post-reset counts = %v", st3.Counts)
	}
	if ex.total.Load() != 2*uniq {
		t.Fatalf("post-reset executor total = %d, want %d", ex.total.Load(), 2*uniq)
	}
}

// TestFairShareDeficitRoundRobin: with one job in flight and everything
// queued up front, dispatch follows the DRR pattern — quantum jobs per
// user per ring visit — so no user waits more than
// (users-1)*quantum dispatches between two of its own.
func TestFairShareDeficitRoundRobin(t *testing.T) {
	var mu sync.Mutex
	var order []string
	exec := func(ctx context.Context, job sched.JobRef) (any, error) {
		mu.Lock()
		order = append(order, job.User)
		mu.Unlock()
		return "ok", nil
	}
	const quantum = 2
	s := sched.New(inline(exec), sched.Options{MaxInFlight: 1, Quantum: quantum, QueueCap: 10_000})

	// alice floods; bob and carol submit small batches. Unique dsts per
	// user so nothing coalesces across users.
	ids := []string{}
	for ui, u := range []string{"alice", "bob", "carol"} {
		n := 8
		if u == "alice" {
			n = 40
		}
		var sp []sched.JobSpec
		for i := 0; i < n; i++ {
			sp = append(sp, sched.JobSpec{Src: addr(uint32(ui + 1)), Dst: addr(uint32(1000*ui + i))})
		}
		ids = append(ids, mustSubmit(t, s, u, sp).ID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	for _, id := range ids {
		waitBatch(t, s, id)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 40+8+8 {
		t.Fatalf("dispatched %d jobs", len(order))
	}
	// Starvation bound: while a user has pending jobs, the gap between
	// its consecutive dispatches is at most (users-1)*quantum.
	last := map[string]int{}
	pendingUntil := map[string]int{} // index of each user's final dispatch
	for i, u := range order {
		pendingUntil[u] = i
	}
	for i, u := range order {
		if prev, ok := last[u]; ok && i-prev > 2*quantum+quantum {
			t.Fatalf("user %s starved: gap %d at dispatch %d", u, i-prev, i)
		}
		last[u] = i
	}
	// While all three users are pending, each window of 3*quantum
	// dispatches serves all three users.
	allPending := min(pendingUntil["bob"], pendingUntil["carol"])
	for start := 0; start+3*quantum <= allPending; start++ {
		seen := map[string]bool{}
		for _, u := range order[start : start+3*quantum] {
			seen[u] = true
		}
		if len(seen) < 3 {
			t.Fatalf("window at %d served only %v", start, order[start:start+3*quantum])
		}
	}
}

// TestShedOnQueueCap: admission past the cap sheds explicitly — no
// blocking, no panic — and a submission that cannot place a single job
// returns ErrOverloaded.
func TestShedOnQueueCap(t *testing.T) {
	o := obs.New()
	s := sched.New(inline(newPureExec().exec), sched.Options{MaxInFlight: 1, QueueCap: 10, Obs: o})
	// Dispatcher not started: everything stays queued.
	st := mustSubmit(t, s, "alice", specs(addr(1), seqAddrs(100, 25)...))
	if st.Counts["queued"] != 10 || st.Counts["shed"] != 15 {
		t.Fatalf("counts = %v", st.Counts)
	}
	if o.Counter("sched_shed_total").Value() != 15 {
		t.Fatalf("sched_shed_total = %d", o.Counter("sched_shed_total").Value())
	}
	if o.Gauge("sched_queue_depth").Value() != 10 {
		t.Fatalf("queue depth gauge = %d", o.Gauge("sched_queue_depth").Value())
	}
	for _, j := range st.Jobs {
		if j.State == "shed" && j.Error == "" {
			t.Fatal("shed job carries no error")
		}
	}

	// Full queue: entirely shed submission errors explicitly.
	_, err := s.Submit(context.Background(), "bob", specs(addr(2), seqAddrs(500, 3)...))
	if !errors.Is(err, sched.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	// But duplicates of queued work still coalesce even at cap: they
	// need no queue slot.
	st2 := mustSubmit(t, s, "bob", specs(addr(1), seqAddrs(100, 5)...))
	if st2.Counts["queued"] != 5 {
		t.Fatalf("coalesced-at-cap counts = %v", st2.Counts)
	}
	for _, j := range st2.Jobs {
		if !j.Coalesced {
			t.Fatal("duplicate at cap did not coalesce")
		}
	}
}

func seqAddrs(base uint32, n int) []ipv4.Addr {
	out := make([]ipv4.Addr, n)
	for i := range out {
		out[i] = addr(base + uint32(i))
	}
	return out
}

// TestWorkerCountBitIdentity: per-job results are bit-identical
// between MaxInFlight=1 and MaxInFlight=8 — scheduling order may
// differ, the result attached to each job may not.
func TestWorkerCountBitIdentity(t *testing.T) {
	run := func(maxInFlight int) []byte {
		ex := newPureExec()
		s := sched.New(spawned(ex.exec), sched.Options{MaxInFlight: maxInFlight, QueueCap: 10_000})
		var ids []string
		for ui, u := range []string{"alice", "bob", "carol"} {
			var sp []sched.JobSpec
			for i := 0; i < 60; i++ {
				// Overlapping dst ranges across users force cross-user
				// coalescing too.
				sp = append(sp, sched.JobSpec{Src: addr(7), Dst: addr(uint32(200 + (ui*20+i)%50))})
			}
			ids = append(ids, mustSubmit(t, s, u, sp).ID)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s.Start(ctx)
		type jobRes struct {
			Batch string
			Index int
			Res   any
		}
		var all []jobRes
		for _, id := range ids {
			st := waitBatch(t, s, id)
			for _, j := range st.Jobs {
				all = append(all, jobRes{id, j.Index, j.Result})
			}
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	many := run(8)
	if string(one) != string(many) {
		t.Fatalf("results differ between MaxInFlight=1 and MaxInFlight=8:\n%s\nvs\n%s", one, many)
	}
}

// TestRevokeCancelsQueuedAndRunning: revocation fails the user's
// queued jobs, cancels its running job, rejects future submissions —
// and hands flight leadership to another user's coalesced job instead
// of killing it.
func TestRevokeCancelsQueuedAndRunning(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	var schedRef *sched.Scheduler
	exec := func(ctx context.Context, job sched.JobRef) (any, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, schedRef.WrapRevoked(job.User, ctx.Err())
		case <-release:
			return "ok", nil
		}
	}
	s := sched.New(inline(exec), sched.Options{MaxInFlight: 1, QueueCap: 100})
	schedRef = s

	// alice: one job that will run (and block), plus queued jobs.
	stA := mustSubmit(t, s, "alice", specs(addr(1), seqAddrs(100, 4)...))
	// bob coalesces onto alice's first (soon running) job and her
	// second (still queued) job.
	stB := mustSubmit(t, s, "bob", specs(addr(1), addr(100), addr(101)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	<-started // alice's first job is running

	s.Revoke("alice")

	if _, err := s.Submit(context.Background(), "alice", specs(addr(1), addr(500))); !errors.Is(err, sched.ErrRevoked) {
		t.Fatalf("revoked submit err = %v", err)
	}

	// bob's jobs must complete: the running leader's cancellation
	// promotes bob's subscriber, the queued leader hands over too.
	close(release)
	final := waitBatch(t, s, stB.ID)
	for _, j := range final.Jobs {
		if j.State != "done" && j.State != "coalesced" {
			t.Fatalf("bob job %d ended %q (%s)", j.Index, j.State, j.Error)
		}
	}
	// alice's jobs all failed with the revocation error.
	stAFinal := waitBatch(t, s, stA.ID)
	for _, j := range stAFinal.Jobs {
		if j.State != "failed" {
			t.Fatalf("alice job %d ended %q, want failed", j.Index, j.State)
		}
	}
}

// TestFailedLeaderFailsSubscribers: a measurement failure propagates
// to everything coalesced onto it, and failures are not cached.
func TestFailedLeaderFailsSubscribers(t *testing.T) {
	var calls atomic.Int64
	exec := func(ctx context.Context, job sched.JobRef) (any, error) {
		calls.Add(1)
		return nil, errors.New("measurement failed")
	}
	s := sched.New(spawned(exec), sched.Options{MaxInFlight: 2})
	st := mustSubmit(t, s, "alice", specs(addr(1), addr(9), addr(9), addr(9)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	final := waitBatch(t, s, st.ID)
	if final.Counts["failed"] != 3 {
		t.Fatalf("counts = %v", final.Counts)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times for one key", calls.Load())
	}
	// The failure must not poison the day cache.
	if s.CacheLen() != 0 {
		t.Fatal("failed result cached")
	}
}

// TestWaitHonorsContext: Wait returns when its context ends even if
// the batch never completes.
func TestWaitHonorsContext(t *testing.T) {
	s := sched.New(inline(newPureExec().exec), sched.Options{MaxInFlight: 1})
	st := mustSubmit(t, s, "alice", specs(addr(1), addr(2))) // never started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, st.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Status("nope"); !errors.Is(err, sched.ErrUnknownBatch) {
		t.Fatalf("unknown batch err = %v", err)
	}
}

// TestExecPanicFailsJob: a panicking executor fails the job instead of
// killing the dispatcher, and the dispatcher keeps serving.
func TestExecPanicFailsJob(t *testing.T) {
	var n atomic.Int64
	exec := func(ctx context.Context, job sched.JobRef) (any, error) {
		if n.Add(1) == 1 {
			panic("backend exploded")
		}
		return "ok", nil
	}
	s := sched.New(inline(exec), sched.Options{MaxInFlight: 1})
	st := mustSubmit(t, s, "alice", specs(addr(1), addr(2), addr(3)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	final := waitBatch(t, s, st.ID)
	if final.Counts["failed"] != 1 || final.Counts["done"] != 1 {
		t.Fatalf("counts = %v", final.Counts)
	}
}

// TestStopAndDrain: Stop is prompt, Drain observes dispatcher exit, and
// post-stop submissions are rejected.
func TestStopAndDrain(t *testing.T) {
	s := sched.New(spawned(newPureExec().exec), sched.Options{MaxInFlight: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	st := mustSubmit(t, s, "alice", specs(addr(1), addr(2)))
	waitBatch(t, s, st.ID)
	s.Stop()
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := s.Submit(context.Background(), "alice", specs(addr(1), addr(3))); !errors.Is(err, sched.ErrStopped) {
		t.Fatalf("post-stop submit err = %v", err)
	}
}

// TestBatchDoneOnLastTransition: a batch reports BatchDone exactly
// once, on the transition that makes its last job terminal — even when
// its first job is resolved at admission (a day-cache hit or a quota
// shed) while later jobs are still queued. Counting open jobs up during
// admission flagged job 0 as the batch's last transition, ending its
// event stream early.
func TestBatchDoneOnLastTransition(t *testing.T) {
	for _, tc := range []struct {
		name      string
		firstWant string
	}{
		{"cache-hit-first", "coalesced"},
		{"shed-first", "shed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu     sync.Mutex
				events []sched.JobEvent
			)
			charges := 0
			s := sched.New(inline(newPureExec().exec), sched.Options{
				MaxInFlight: 1,
				// The shed case refuses the first measurement only.
				TryCharge: func(string) bool {
					charges++
					return tc.firstWant != "shed" || charges != 1
				},
				OnJob: func(ev sched.JobEvent) {
					mu.Lock()
					events = append(events, ev)
					mu.Unlock()
				},
			})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.Start(ctx)
			if tc.firstWant == "coalesced" {
				// Warm the day cache with the pair the batch leads with.
				waitBatch(t, s, mustSubmit(t, s, "alice", specs(addr(1), addr(100))).ID)
			}

			st := mustSubmit(t, s, "alice", specs(addr(1), addr(100), addr(101)))
			if got := st.Jobs[0].State; got != tc.firstWant {
				t.Fatalf("job 0 admitted as %q, want %q", got, tc.firstWant)
			}
			final := waitBatch(t, s, st.ID)

			mu.Lock()
			defer mu.Unlock()
			var batch []sched.JobEvent
			for _, ev := range events {
				if ev.Batch == st.ID {
					batch = append(batch, ev)
				}
			}
			dones := 0
			for i, ev := range batch {
				if !ev.BatchDone {
					continue
				}
				dones++
				if i != len(batch)-1 {
					t.Errorf("BatchDone on event %d (job %d, %s) of %d", i, ev.Index, ev.State, len(batch))
				}
			}
			if dones != 1 {
				t.Fatalf("batch reported BatchDone %d times, want 1 (events %+v)", dones, batch)
			}
			if last := batch[len(batch)-1]; last.Index != 1 || last.State.String() != final.Jobs[1].State {
				t.Fatalf("last event = job %d %s, want job 1 %s", last.Index, last.State, final.Jobs[1].State)
			}
		})
	}
}
