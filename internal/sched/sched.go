// Package sched is the asynchronous batch-measurement scheduler: the
// layer between "one blocking HTTP request" and the offline campaign
// runner that the paper's bulk workload needs (revtr 2.0 sustains
// 11.7M reverse traceroutes per day, §3). It accepts batches of
// (src, dst) jobs, admits them into a bounded queue with explicit
// load-shedding, dispatches them through one non-blocking dispatcher
// with per-user fair share (deficit round-robin across users, FIFO
// within a user),
// and coalesces duplicate (src, dst) work — Doubletree's redundancy
// elimination applied at the request layer: one measurement, N
// subscribers, and neither coalesced jobs nor day-cache hits charge
// any probe budget (Insight 1.4's 24-hour reuse window).
//
// The scheduler is measurement-agnostic: an ExecAsync callback starts
// one job, the service layer supplies one that drives the revtr engine
// and archives the result. Everything else — admission, fairness,
// coalescing, cancellation on key revocation, metrics — lives here.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
)

// State is a job's lifecycle state.
type State int

// Job states. Queued and Running are transient; the other four are
// terminal. A queued duplicate waiting on an in-flight leader stays
// Queued until the leader resolves it to Coalesced (or Failed).
const (
	StateQueued State = iota
	StateRunning
	StateCoalesced // resolved by a leader's result or the day cache; zero probes
	StateDone
	StateFailed
	StateShed // rejected at admission: queue full or quota exhausted
)

var stateNames = [...]string{"queued", "running", "coalesced", "done", "failed", "shed"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	switch s {
	case StateCoalesced, StateDone, StateFailed, StateShed:
		return true
	}
	return false
}

var (
	// ErrOverloaded is the explicit load-shed error: the queue cap was
	// hit and not a single job of the submission could be admitted.
	ErrOverloaded = errors.New("sched: queue full, batch load-shed")
	// ErrRevoked fails jobs whose user's API key was revoked.
	ErrRevoked = errors.New("sched: user revoked")
	// ErrQuota sheds jobs refused by the Options.TryCharge admission
	// callback (the service's per-user measurements-per-day limit).
	ErrQuota = errors.New("sched: daily quota exhausted")
	// ErrStopped rejects submissions after the scheduler stopped.
	ErrStopped = errors.New("sched: scheduler stopped")
	// ErrUnknownBatch is returned for status queries on unknown IDs.
	ErrUnknownBatch = errors.New("sched: unknown batch")
)

// JobRef identifies one admitted job to the ExecAsync callback: its batch,
// index within that batch, owning user key, and measurement endpoints.
// The batch/index pair lets the executor publish per-job progress
// (hop-by-hop streaming) onto the right topic.
type JobRef struct {
	Batch string
	Index int
	User  string
	Src   ipv4.Addr
	Dst   ipv4.Addr
}

// ExecAsync starts one admitted job without blocking the dispatcher:
// the callee begins the measurement (e.g. core.Engine.MeasureAsync) and
// calls done exactly once when it finishes. It must honor ctx
// (cancelled jobs should finish promptly). Concurrency is bounded by
// Options.MaxInFlight started-but-unfinished jobs — suspended
// measurements, not parked goroutines: the §5.2.4 shape. The result is
// opaque to the scheduler; the service returns the archived
// *service.Measurement.
type ExecAsync func(ctx context.Context, job JobRef, done func(res any, err error))

// JobEvent is one job lifecycle transition, delivered to Options.OnJob
// under the scheduler lock — strictly in transition order.
type JobEvent struct {
	Batch     string
	Index     int
	User      string
	Src, Dst  ipv4.Addr
	State     State
	Coalesced bool
	Err       error
	// BatchDone marks the transition that made every job of the batch
	// terminal: the batch's event stream can end after this event.
	BatchDone bool
}

// JobSpec is one (src, dst) pair of a submitted batch.
type JobSpec struct {
	Src ipv4.Addr
	Dst ipv4.Addr
}

// Options tunes the scheduler.
type Options struct {
	// Deprecated: ignored. MaxInFlight bounds dispatch concurrency.
	Workers int
	// MaxInFlight bounds concurrently started-but-unfinished jobs.
	// <= 0 means 4096.
	MaxInFlight int
	// QueueCap bounds jobs queued for dispatch across all users
	// (coalesced subscribers ride their leader and do not count).
	// Admission past the cap sheds. <= 0 means 1024.
	QueueCap int
	// Quantum is the deficit round-robin quantum: how many jobs one
	// user may dispatch per ring visit before the next user is served.
	// <= 0 means 4.
	Quantum int
	// CacheCap bounds the day cache of completed results. <= 0 means
	// 65536 entries.
	CacheCap int
	// MaxBatches bounds retained batch statuses; the oldest fully
	// terminal batches are forgotten first. <= 0 means 4096.
	MaxBatches int
	// TryCharge, when set, is the admission quota: it is consulted once
	// per job that will drive a measurement of its own — at admission
	// for new flight leaders, and at promotion when a revoked leader's
	// flight is handed to a subscriber — and must atomically charge the
	// user's budget, returning false when it is exhausted (the job is
	// then shed with ErrQuota). Day-cache hits and coalesced
	// subscribers are never charged. The callback runs with the
	// scheduler lock held: it may take its own locks (the service takes
	// its registry lock), which fixes the global lock order at
	// scheduler → callback — nothing may call into the scheduler while
	// holding the callback's locks. nil means unlimited admission.
	TryCharge func(user string) bool
	// OnJob, when set, observes every job state transition (queued,
	// running, coalesced, done, failed, shed — including admission
	// outcomes inside Submit). It is called synchronously with the
	// scheduler lock held, in exact transition order: it must be fast,
	// must never block, and must not call back into the scheduler. The
	// service bridges these events onto per-batch stream topics.
	OnJob func(ev JobEvent)
	// Obs receives scheduler metrics; nil disables them.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 1024
	}
	if o.Quantum <= 0 {
		o.Quantum = 4
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 1 << 16
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4096
	}
	if o.MaxBatches <= 0 {
		o.MaxBatches = 4096
	}
	return o
}

// Job is one admitted (src, dst) measurement job.
type Job struct {
	batch *Batch
	idx   int
	user  string
	src   ipv4.Addr
	dst   ipv4.Addr

	state     State
	result    any
	err       error
	coalesced bool      // resolved without its own ExecAsync call
	admitted  time.Time // dispatch-latency base //revtr:wallclock observability timestamp, not simulation time
}

// Batch groups the jobs of one submission. open counts its
// non-terminal jobs (maintained by notifyLocked) so the final
// transition can be flagged without rescanning the batch.
type Batch struct {
	id   string
	user string
	jobs []*Job
	open int
}

// ref renders the job's executor-facing identity.
func (j *Job) ref() JobRef {
	return JobRef{Batch: j.batch.id, Index: j.idx, User: j.user, Src: j.src, Dst: j.dst}
}

// JobStatus is the externally visible snapshot of one job.
type JobStatus struct {
	Index int    `json:"index"`
	Src   string `json:"src"`
	Dst   string `json:"dst"`
	State string `json:"state"`
	// Coalesced marks jobs resolved by another job's measurement or
	// the day cache — zero probes charged.
	Coalesced bool `json:"coalesced,omitempty"`
	// Result is the ExecAsync result (the archived measurement, for the
	// service's callback). Present once the job is terminal and succeeded.
	Result any    `json:"result,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchStatus is the externally visible snapshot of one batch.
type BatchStatus struct {
	ID     string         `json:"batchId"`
	User   string         `json:"user"`
	Jobs   []JobStatus    `json:"jobs"`
	Counts map[string]int `json:"counts"`
	Done   bool           `json:"done"`
}

// flight is one in-flight or queued (src, dst) measurement and the
// duplicate jobs riding it (singleflight).
type flight struct {
	leader *Job
	subs   []*Job
}

type key struct{ src, dst ipv4.Addr }

// cacheEntry is one day-cache record: the result and the user whose
// measurement produced it, so revoking that user can purge exactly
// their entries.
type cacheEntry struct {
	res  any
	user string
}

// userQueue is one user's FIFO plus its deficit round-robin state.
type userQueue struct {
	name    string
	jobs    []*Job
	deficit int
	inRing  bool
}

// Scheduler is the batch scheduler. Create with New, start the
// dispatcher with Start, submit with Submit. Safe for concurrent use.
type Scheduler struct {
	exec ExecAsync
	opts Options

	mu       sync.Mutex
	dispatch *sync.Cond // queued work available (or stopping)
	progress *sync.Cond // some job reached a terminal state

	users    map[string]*userQueue
	ring     []*userQueue // users with pending jobs, round-robin order
	ringIdx  int
	queued   int
	inflight int // started-but-unfinished jobs
	flights  map[key]*flight
	running  map[*Job]context.CancelFunc
	revoked  map[string]bool
	cache    map[key]cacheEntry // day cache: successful results since last ResetDay
	cacheSeq []key              // insertion order, for cap eviction
	batches  map[string]*Batch
	batchSeq []string // insertion order, for retention
	nextID   int
	stopped  bool
	started  bool
	wg       sync.WaitGroup
	drained  chan struct{} // closed when the dispatcher has exited

	mQueueDepth *obs.Gauge
	mCoalesced  *obs.Counter
	mCacheHits  *obs.Counter
	mShed       *obs.Counter
	mBatches    *obs.Counter
	mDispatch   *obs.Histogram
}

// New builds a scheduler over an ExecAsync callback. Call Start to
// begin dispatching.
func New(exec ExecAsync, opts Options) *Scheduler {
	opts = opts.withDefaults()
	s := &Scheduler{
		exec:        exec,
		opts:        opts,
		users:       make(map[string]*userQueue),
		flights:     make(map[key]*flight),
		running:     make(map[*Job]context.CancelFunc),
		revoked:     make(map[string]bool),
		cache:       make(map[key]cacheEntry),
		batches:     make(map[string]*Batch),
		mQueueDepth: opts.Obs.Gauge("sched_queue_depth"),
		mCoalesced:  opts.Obs.Counter("sched_coalesced_total"),
		mCacheHits:  opts.Obs.Counter("sched_cache_hits_total"),
		mShed:       opts.Obs.Counter("sched_shed_total"),
		mBatches:    opts.Obs.Counter("sched_batches_total"),
		mDispatch:   opts.Obs.Histogram("sched_dispatch_wall_us", nil),
	}
	s.dispatch = sync.NewCond(&s.mu)
	s.progress = sync.NewCond(&s.mu)
	return s
}

// countState tallies a transition into a state on the labelled
// sched_jobs_total counter.
func (s *Scheduler) countState(st State) {
	s.opts.Obs.Counter(obs.Label("sched_jobs_total", "state", st.String())).Inc()
}

// notifyLocked records one job state transition: it maintains the
// batch's open-job count and delivers the transition to Options.OnJob.
// Call exactly once per state assignment (including re-queue on
// promotion, which re-announces "queued"), with s.mu held. The
// transition that empties a batch is flagged BatchDone.
func (s *Scheduler) notifyLocked(j *Job) {
	if j.state.Terminal() {
		j.batch.open--
	}
	if s.opts.OnJob == nil {
		return
	}
	s.opts.OnJob(JobEvent{ //revtr:calls revtr/internal/service.Registry.publishJobEvent
		Batch: j.batch.id, Index: j.idx, User: j.user,
		Src: j.src, Dst: j.dst, State: j.state,
		Coalesced: j.coalesced, Err: j.err,
		BatchDone: j.state.Terminal() && j.batch.open == 0,
	})
}

// Start launches the dispatcher. It stops when ctx is cancelled (or
// Stop is called); started jobs inherit ctx and are cancelled with it.
// Start returns immediately; it is a no-op after the first call.
func (s *Scheduler) Start(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.drained = make(chan struct{})
	s.mu.Unlock()
	s.wg.Add(1)
	go s.dispatcher(ctx)
	go func() {
		s.wg.Wait()
		close(s.drained)
	}()
	go func() {
		<-ctx.Done()
		s.Stop()
	}()
}

// Stop cancels dispatching: started jobs run to completion, queued
// jobs stay queued, and Submit starts rejecting. Stop does not wait —
// pair it with Drain for an orderly shutdown.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.dispatch.Broadcast()
	s.progress.Broadcast()
	s.mu.Unlock()
}

// Drain blocks until the dispatcher has exited — every started job
// finished — after Stop or Start-ctx cancellation, or until ctx ends.
func (s *Scheduler) Drain(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Lock()
	d := s.drained
	s.mu.Unlock()
	if d == nil {
		return nil // never started: nothing to drain
	}
	select {
	case <-d:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit admits one batch of jobs for user. Admission is synchronous
// and never blocks: each job is either resolved from the day cache
// (state "coalesced"), attached to an identical in-flight job (stays
// "queued", resolves with the leader), enqueued for dispatch, or shed —
// when the queue cap is hit, or when Options.TryCharge refuses the
// user another measurement. Cache hits and coalesced duplicates are
// free: TryCharge is consulted only for jobs that will drive a
// measurement of their own, each charged at the moment it is admitted.
// The snapshot reflects admission; poll Status (or Wait) for
// completion. The error is ErrOverloaded only when every job that
// needed queue space was shed by the cap.
func (s *Scheduler) Submit(ctx context.Context, user string, specs []JobSpec) (BatchStatus, error) {
	if err := ctx.Err(); err != nil {
		return BatchStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return BatchStatus{}, ErrStopped
	}
	if s.revoked[user] {
		return BatchStatus{}, ErrRevoked
	}

	b := &Batch{id: fmt.Sprintf("b%d", s.nextID), user: user}
	s.nextID++
	now := time.Now() //revtr:wallclock dispatch-latency observability base, not simulation time
	needed, capShed := 0, 0
	// Every job is open before the first is admitted: a leading day-cache
	// hit or shed must not be taken for the batch's last transition.
	b.open = len(specs)
	for i, spec := range specs {
		j := &Job{batch: b, idx: i, user: user, src: spec.Src, dst: spec.Dst, admitted: now}
		b.jobs = append(b.jobs, j)
		k := key{spec.Src, spec.Dst}
		if e, ok := s.cache[k]; ok {
			// Day-cache hit: resolved immediately, zero probes.
			j.state = StateCoalesced
			j.coalesced = true
			j.result = e.res
			s.mCacheHits.Inc()
			s.mCoalesced.Inc()
			s.countState(StateCoalesced)
			s.notifyLocked(j)
			continue
		}
		if f, ok := s.flights[k]; ok {
			// Identical job queued or in flight: subscribe to its result.
			f.subs = append(f.subs, j)
			j.coalesced = true
			s.countState(StateQueued)
			s.notifyLocked(j)
			continue
		}
		needed++
		// Queue space before quota: a cap-shed job never charges, so no
		// refund path is needed.
		if s.queued >= s.opts.QueueCap {
			j.state = StateShed
			j.err = ErrOverloaded
			capShed++
			s.mShed.Inc()
			s.countState(StateShed)
			s.notifyLocked(j)
			continue
		}
		if !s.tryChargeLocked(user) {
			j.state = StateShed
			j.err = ErrQuota
			s.mShed.Inc()
			s.countState(StateShed)
			s.notifyLocked(j)
			continue
		}
		s.flights[k] = &flight{leader: j}
		s.enqueueLocked(j)
		s.countState(StateQueued)
		s.notifyLocked(j)
	}
	s.rememberBatchLocked(b)
	s.mBatches.Inc()
	st := s.statusLocked(b)
	if needed > 0 && capShed == needed {
		return st, ErrOverloaded
	}
	return st, nil
}

// tryChargeLocked consults the admission quota callback for one
// measurement-driving job. Callers hold s.mu.
func (s *Scheduler) tryChargeLocked(user string) bool {
	return s.opts.TryCharge == nil || s.opts.TryCharge(user) //revtr:calls revtr/internal/service.Registry.tryCharge
}

// enqueueLocked appends a job to its user's FIFO and makes sure the
// user is on the dispatch ring. Callers hold s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	u := s.users[j.user]
	if u == nil {
		u = &userQueue{name: j.user}
		s.users[j.user] = u
	}
	u.jobs = append(u.jobs, j)
	if !u.inRing {
		u.inRing = true
		u.deficit = 0
		s.ring = append(s.ring, u)
	}
	s.queued++
	s.mQueueDepth.Set(int64(s.queued))
	s.dispatch.Signal()
}

// requeueFrontLocked puts a promoted job back at the head of its
// user's FIFO (it was admitted earlier than anything queued behind it).
// Callers hold s.mu.
func (s *Scheduler) requeueFrontLocked(j *Job) {
	u := s.users[j.user]
	if u == nil {
		u = &userQueue{name: j.user}
		s.users[j.user] = u
	}
	u.jobs = append([]*Job{j}, u.jobs...)
	if !u.inRing {
		u.inRing = true
		u.deficit = 0
		s.ring = append(s.ring, u)
	}
	s.queued++
	s.mQueueDepth.Set(int64(s.queued))
	s.dispatch.Signal()
}

// rememberBatchLocked indexes a batch and evicts the oldest fully
// terminal batches past the retention cap. Callers hold s.mu.
func (s *Scheduler) rememberBatchLocked(b *Batch) {
	s.batches[b.id] = b
	s.batchSeq = append(s.batchSeq, b.id)
	for len(s.batchSeq) > s.opts.MaxBatches {
		evicted := false
		for i, id := range s.batchSeq {
			old := s.batches[id]
			if old != nil && !s.terminalLocked(old) {
				continue
			}
			delete(s.batches, id)
			s.batchSeq = append(s.batchSeq[:i], s.batchSeq[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			break // everything retained is still live; let it ride
		}
	}
}

// dispatcher is the dispatch loop: one goroutine starts every job,
// bounded by MaxInFlight unfinished starts, and each job's completion
// callback signals it to start the next. On stop it waits for started
// jobs to complete before exiting, so Drain means "no job is running".
func (s *Scheduler) dispatcher(ctx context.Context) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.stopped && s.inflight >= s.opts.MaxInFlight {
			s.dispatch.Wait()
		}
		var j *Job
		if !s.stopped {
			j = s.nextLocked()
		}
		if j == nil { // stopped
			for s.inflight > 0 {
				s.dispatch.Wait()
			}
			s.mu.Unlock()
			return
		}
		j.state = StateRunning
		s.countState(StateRunning)
		s.notifyLocked(j)
		s.mDispatch.Observe(time.Since(j.admitted).Microseconds()) //revtr:wallclock dispatch-latency histogram measures real queueing delay
		jctx, cancel := context.WithCancel(ctx)
		s.running[j] = cancel
		s.inflight++
		s.mu.Unlock()

		s.execSafe(jctx, cancel, j)
	}
}

// execSafe starts one job through the ExecAsync callback with a
// single-shot completion function, converting a synchronous panic into
// a failed job instead of killing the dispatcher.
func (s *Scheduler) execSafe(ctx context.Context, cancel context.CancelFunc, j *Job) {
	var once sync.Once
	done := func(res any, err error) {
		once.Do(func() {
			cancel()
			s.complete(j, res, err)
			s.mu.Lock()
			s.inflight--
			s.dispatch.Signal()
			s.mu.Unlock()
		})
	}
	defer func() {
		if v := recover(); v != nil {
			s.opts.Obs.Counter("sched_exec_panics_total").Inc()
			done(nil, fmt.Errorf("sched: exec panic: %v", v))
		}
	}()
	s.exec(ctx, j.ref(), done) //revtr:calls revtr/internal/service.Registry.batchExec
}

// nextLocked blocks until a job is dispatchable and picks it by
// deficit round-robin: visit the ring user, serve up to Quantum of its
// FIFO, rotate. Returns nil when the scheduler stops. Callers hold
// s.mu; it may be released while waiting.
func (s *Scheduler) nextLocked() *Job {
	for {
		if s.stopped {
			return nil
		}
		if len(s.ring) == 0 {
			s.dispatch.Wait()
			continue
		}
		if s.ringIdx >= len(s.ring) {
			s.ringIdx = 0
		}
		u := s.ring[s.ringIdx]
		if u.deficit <= 0 {
			u.deficit = s.opts.Quantum
		}
		j := u.jobs[0]
		u.jobs = u.jobs[1:]
		u.deficit--
		if len(u.jobs) == 0 {
			// User drained: leave the ring; the next user slides into
			// this index, so don't advance.
			u.inRing = false
			u.deficit = 0
			s.ring = append(s.ring[:s.ringIdx], s.ring[s.ringIdx+1:]...)
		} else if u.deficit == 0 {
			s.ringIdx++
		}
		s.queued--
		s.mQueueDepth.Set(int64(s.queued))
		return j
	}
}

// complete resolves a finished leader and everyone coalesced onto it.
func (s *Scheduler) complete(j *Job, res any, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j)
	k := key{j.src, j.dst}
	f := s.flights[k]
	delete(s.flights, k)

	if err == nil {
		j.state = StateDone
		j.result = res
		s.countState(StateDone)
		s.cachePutLocked(k, res, j.user)
	} else {
		j.state = StateFailed
		j.err = err
		s.countState(StateFailed)
	}
	s.notifyLocked(j)

	if f != nil {
		subs := f.subs
		if err != nil && errors.Is(err, ErrRevoked) {
			// The leader was cancelled by key revocation, not by the
			// measurement failing: promote the first surviving
			// subscriber to leader so other users' jobs still run.
			subs = s.promoteLocked(k, subs)
		}
		for _, sub := range subs {
			if err == nil {
				sub.state = StateCoalesced
				sub.result = res
				s.mCoalesced.Inc()
				s.countState(StateCoalesced)
			} else {
				sub.state = StateFailed
				sub.err = err
				s.countState(StateFailed)
			}
			s.notifyLocked(sub)
		}
	}
	s.progress.Broadcast()
}

// promoteLocked hands a revoked leader's flight to its first surviving
// subscriber and returns the subscribers that must fail with the
// original error (revoked users' own jobs). The promoted job will run
// a real measurement it was never charged for — it was admitted as a
// free coalesced duplicate — so promotion charges its user via
// TryCharge; subscribers whose budget is exhausted are shed in place
// (ErrQuota) and the next one is tried. Callers hold s.mu.
func (s *Scheduler) promoteLocked(k key, subs []*Job) (failNow []*Job) {
	var newLeader *Job
	var carried []*Job
	for _, sub := range subs {
		switch {
		case s.revoked[sub.user]:
			failNow = append(failNow, sub)
		case newLeader == nil:
			if !s.tryChargeLocked(sub.user) {
				sub.state = StateShed
				sub.err = ErrQuota
				s.mShed.Inc()
				s.countState(StateShed)
				s.notifyLocked(sub)
				continue
			}
			newLeader = sub
		default:
			carried = append(carried, sub)
		}
	}
	if newLeader == nil {
		return failNow
	}
	newLeader.coalesced = false
	s.flights[k] = &flight{leader: newLeader, subs: carried}
	s.requeueFrontLocked(newLeader)
	s.notifyLocked(newLeader) // re-announces "queued": leadership handoff
	return failNow
}

// cachePutLocked records a successful result in the day cache under
// the user that measured it, evicting oldest-first past the cap.
// Callers hold s.mu.
func (s *Scheduler) cachePutLocked(k key, res any, user string) {
	if _, ok := s.cache[k]; !ok {
		s.cacheSeq = append(s.cacheSeq, k)
	}
	s.cache[k] = cacheEntry{res: res, user: user}
	for len(s.cache) > s.opts.CacheCap && len(s.cacheSeq) > 0 {
		old := s.cacheSeq[0]
		s.cacheSeq = s.cacheSeq[1:]
		delete(s.cache, old)
	}
}

// ResetDay drops the day cache: the service's midnight maintenance
// calls this next to its quota roll, ending Insight 1.4's reuse window.
func (s *Scheduler) ResetDay() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[key]cacheEntry)
	s.cacheSeq = nil
}

// CacheLen reports the day cache's current entry count.
func (s *Scheduler) CacheLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Revoke cancels a user: queued jobs fail with ErrRevoked (leaders
// with foreign subscribers hand leadership over instead of killing
// them), running jobs are cancelled, the user's day-cache entries are
// purged, and future submissions are rejected. Without the purge a
// revoked user's results would keep resolving new submissions — their
// own and coalescing strangers' — for free until ResetDay. Idempotent.
func (s *Scheduler) Revoke(user string) {
	s.mu.Lock()
	s.revoked[user] = true
	// Day cache: drop every entry this user's measurements produced and
	// rebuild the eviction order over the survivors.
	purged := 0
	for k, e := range s.cache {
		if e.user == user {
			delete(s.cache, k)
			purged++
		}
	}
	if purged > 0 {
		kept := s.cacheSeq[:0]
		for _, k := range s.cacheSeq {
			if _, ok := s.cache[k]; ok {
				kept = append(kept, k)
			}
		}
		s.cacheSeq = kept
		s.opts.Obs.Counter("sched_cache_purged_total").Add(uint64(purged))
	}
	// Queued jobs: fail them and drop them from their FIFO.
	if u := s.users[user]; u != nil && len(u.jobs) > 0 {
		jobs := u.jobs
		u.jobs = nil
		s.queued -= len(jobs)
		s.mQueueDepth.Set(int64(s.queued))
		if u.inRing {
			u.inRing = false
			u.deficit = 0
			for i, ru := range s.ring {
				if ru == u {
					if i < s.ringIdx {
						s.ringIdx--
					}
					s.ring = append(s.ring[:i], s.ring[i+1:]...)
					break
				}
			}
		}
		for _, j := range jobs {
			k := key{j.src, j.dst}
			var failNow []*Job
			if f := s.flights[k]; f != nil && f.leader == j {
				delete(s.flights, k)
				failNow = s.promoteLocked(k, f.subs)
			}
			j.state = StateFailed
			j.err = ErrRevoked
			s.countState(StateFailed)
			s.notifyLocked(j)
			for _, sub := range failNow {
				sub.state = StateFailed
				sub.err = ErrRevoked
				s.countState(StateFailed)
				s.notifyLocked(sub)
			}
		}
	}
	// Subscribers of other users' flights: detach and fail.
	for _, f := range s.flights {
		kept := f.subs[:0]
		for _, sub := range f.subs {
			if sub.user == user {
				sub.state = StateFailed
				sub.err = ErrRevoked
				s.countState(StateFailed)
				s.notifyLocked(sub)
				continue
			}
			kept = append(kept, sub)
		}
		f.subs = kept
	}
	// Running jobs: cancel their contexts; completion wraps the error
	// as ErrRevoked so flight promotion kicks in.
	var cancels []context.CancelFunc
	for j, cancel := range s.running {
		if j.user == user {
			cancels = append(cancels, cancel)
		}
	}
	s.progress.Broadcast()
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}

// Revoked reports whether a user has been revoked.
func (s *Scheduler) Revoked(user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.revoked[user]
}

// WrapRevoked converts an ExecAsync error of a revoked user's job into
// ErrRevoked so the scheduler's promotion logic applies. The service's
// callback calls this on its error return.
func (s *Scheduler) WrapRevoked(user string, err error) error {
	if err == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.revoked[user] {
		return fmt.Errorf("%w: %v", ErrRevoked, err)
	}
	return err
}

// Status snapshots a batch.
func (s *Scheduler) Status(batchID string) (BatchStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.batches[batchID]
	if !ok {
		return BatchStatus{}, ErrUnknownBatch
	}
	return s.statusLocked(b), nil
}

// terminalLocked reports whether every job of b is terminal. Callers
// hold s.mu.
func (s *Scheduler) terminalLocked(b *Batch) bool {
	for _, j := range b.jobs {
		if !j.state.Terminal() {
			return false
		}
	}
	return true
}

// statusLocked renders a batch snapshot. Callers hold s.mu.
func (s *Scheduler) statusLocked(b *Batch) BatchStatus {
	st := BatchStatus{
		ID:     b.id,
		User:   b.user,
		Counts: make(map[string]int),
		Done:   true,
	}
	for _, j := range b.jobs {
		js := JobStatus{
			Index:     j.idx,
			Src:       j.src.String(),
			Dst:       j.dst.String(),
			State:     j.state.String(),
			Coalesced: j.coalesced,
			Result:    j.result,
		}
		if j.err != nil {
			js.Error = j.err.Error()
		}
		st.Jobs = append(st.Jobs, js)
		st.Counts[j.state.String()]++
		if !j.state.Terminal() {
			st.Done = false
		}
	}
	return st
}

// Wait blocks until every job of the batch is terminal, the context is
// cancelled, or the scheduler stops, and returns the final snapshot.
func (s *Scheduler) Wait(ctx context.Context, batchID string) (BatchStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Wake the cond loop when the caller's context ends.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.mu.Lock()
			s.progress.Broadcast()
			s.mu.Unlock()
		case <-done:
		}
	}()

	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		b, ok := s.batches[batchID]
		if !ok {
			return BatchStatus{}, ErrUnknownBatch
		}
		if s.terminalLocked(b) {
			return s.statusLocked(b), nil
		}
		if err := ctx.Err(); err != nil {
			return s.statusLocked(b), err
		}
		if s.stopped {
			return s.statusLocked(b), ErrStopped
		}
		s.progress.Wait()
	}
}

// QueueDepth reports the number of jobs queued for dispatch.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}
