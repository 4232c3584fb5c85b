// Batch measurement API: the service face of internal/sched. The
// user's daily quota is charged through the scheduler's TryCharge
// callback, once per job that drives a measurement of its own: at
// admission for new flight leaders, and at promotion when a revoked
// leader's flight is handed to one of its subscribers (whose coalesced
// ride was free until then). Day-cache hits and duplicates coalesced
// onto an in-flight leader are never charged (Insight 1.4's reuse
// window applied at the request layer). Because completion never
// charges, jobs admitted before a midnight ResetDay cannot
// double-charge the new day's budget.
//
// Lock order: the scheduler calls TryCharge with its own lock held and
// TryCharge takes r.mu, so the global order is sched.mu → r.mu —
// nothing in this package may call into the scheduler while holding
// r.mu.
package service

import (
	"context"
	"errors"

	"revtr/internal/core"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

var (
	// ErrBatchDisabled rejects batch calls on a registry without an
	// enabled scheduler (EnableBatch was never called).
	ErrBatchDisabled = errors.New("service: batch scheduler not enabled")
	// ErrUnknownUser is returned when revoking a key that does not exist.
	ErrUnknownUser = errors.New("service: unknown user")
)

// EnableBatch attaches a batch scheduler to the registry and starts its
// dispatcher; ctx stops it (pair with Drain on the returned scheduler
// for an orderly shutdown). The scheduler shares the registry's metric
// registry regardless of opts.Obs. Calling EnableBatch again returns
// the already-enabled scheduler.
func (r *Registry) EnableBatch(ctx context.Context, opts sched.Options) *sched.Scheduler {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.Obs = r.obs
	opts.TryCharge = r.tryCharge
	opts.OnJob = r.publishJobEvent
	sc := sched.New(r.batchExec, opts)
	r.mu.Lock()
	if r.sched != nil {
		sc = r.sched
		r.mu.Unlock()
		return sc
	}
	r.sched = sc
	r.mu.Unlock()
	sc.Start(ctx)
	return sc
}

// batchExec is the scheduler's ExecAsync callback: start one
// measurement through Backend.MeasureAsyncStream and finish it —
// archive, status metrics, revocation wrapping — inside the completion
// callback, on a probe-pool executor goroutine. Quota was charged at
// admission (or at promotion), so nothing is charged here. The atlas
// read lock is held across the suspended measurement, as safeMeasure
// holds it, so DailyMaintenance cannot swap entries mid-measurement.
// Cancelled or panicked measurements complete with an error so their
// partial results never resolve coalesced subscribers or enter the day
// cache.
func (r *Registry) batchExec(ctx context.Context, job sched.JobRef, done func(res any, err error)) {
	r.mu.Lock()
	reg, ok := r.sources[job.Src]
	sc := r.sched
	name := ""
	if u, known := r.users[job.User]; known {
		name = u.Name
	}
	r.mu.Unlock()
	if !ok {
		done(nil, ErrUnknownSource)
		return
	}
	reg.atlasMu.RLock()
	//revtr:heldacross the atlas read lock is pinned for the measurement's suspended lifetime — DailyMaintenance must not swap entries mid-measurement; the completion callback releases it
	r.backend.MeasureAsyncStream(ctx, reg.src, job.Dst, r.progressSink(job), func(res *core.Result) {
		reg.atlasMu.RUnlock()
		r.obs.Counter("service_batch_exec_total").Inc()
		if res == nil {
			r.countBackendPanic()
			done(nil, sc.WrapRevoked(job.User, errors.New("service: backend panic")))
			return
		}
		if err := ctx.Err(); err != nil {
			done(nil, sc.WrapRevoked(job.User, err))
			return
		}
		m, err := r.record(job.Src, job.Dst, name, res, true)
		if err != nil {
			done(nil, err)
			return
		}
		done(m, nil)
	})
}

// tryCharge is the scheduler's admission-quota callback: atomically
// charge one measurement against the user's daily budget, refusing
// when it is exhausted (or the user no longer exists). The scheduler
// calls it with its own lock held — see the package comment for the
// resulting sched.mu → r.mu lock order.
func (r *Registry) tryCharge(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	u, ok := r.users[key]
	if !ok || u.usedToday >= u.MaxPerDay {
		return false
	}
	u.usedToday++
	r.userGauges(u)
	return true
}

// SubmitBatch admits a batch of (src, dst) jobs for the user owning
// key. Every src must be a registered source — a batch with any
// unknown source is rejected whole, before charging anything. The
// quota check and the charge are atomic inside tryCharge, serialized
// under the scheduler's admission lock, so concurrent submissions
// cannot overdraw MaxPerDay. The returned snapshot reflects admission
// (jobs may already be resolved from the day cache); poll BatchStatus
// for completion. ErrOverloaded means the dispatch queue shed the
// entire batch.
func (r *Registry) SubmitBatch(ctx context.Context, key string, specs []sched.JobSpec) (sched.BatchStatus, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.mu.Lock()
	sc := r.sched
	if sc == nil {
		r.mu.Unlock()
		return sched.BatchStatus{}, ErrBatchDisabled
	}
	if _, ok := r.users[key]; !ok {
		r.mu.Unlock()
		return sched.BatchStatus{}, ErrUnauthorized
	}
	for _, sp := range specs {
		if _, ok := r.sources[sp.Src]; !ok {
			r.mu.Unlock()
			return sched.BatchStatus{}, ErrUnknownSource
		}
	}
	// r.mu must be released before calling into the scheduler: Submit
	// takes sched.mu and charges quota back through tryCharge (r.mu).
	r.mu.Unlock()
	return sc.Submit(ctx, key, specs)
}

// BatchStatus snapshots a batch. Only the submitting user (or the
// admin key) may see it; other users' batch IDs report as unknown
// rather than leaking their existence.
func (r *Registry) BatchStatus(key, id string) (sched.BatchStatus, error) {
	r.mu.Lock()
	sc := r.sched
	_, isUser := r.users[key]
	isAdmin := key != "" && key == r.adminKey
	r.mu.Unlock()
	if sc == nil {
		return sched.BatchStatus{}, ErrBatchDisabled
	}
	if !isUser && !isAdmin {
		return sched.BatchStatus{}, ErrUnauthorized
	}
	st, err := sc.Status(id)
	if err != nil {
		return sched.BatchStatus{}, err
	}
	if !isAdmin && st.User != key {
		return sched.BatchStatus{}, sched.ErrUnknownBatch
	}
	return st, nil
}

// RevokeUser deletes a user's API key (admin operation) and cancels
// the user's batch work: queued jobs fail with ErrRevoked, running
// measurements are interrupted, and in-flight leaders with other
// users' jobs coalesced onto them hand leadership over before failing,
// so revocation never takes other users' results down with it.
func (r *Registry) RevokeUser(adminKey, key string) error {
	if adminKey != r.adminKey {
		return ErrUnauthorized
	}
	r.mu.Lock()
	u, ok := r.users[key]
	if ok {
		delete(r.users, key)
	}
	sc := r.sched
	r.mu.Unlock()
	if !ok {
		return ErrUnknownUser
	}
	// Close the revoked key's event streams with an explicit end/revoked
	// before revoking its jobs: revocation fails the user's queued jobs,
	// which can turn a batch terminal and publish a normal end/done —
	// closing first guarantees the user's subscribers always see the
	// revocation as the terminal reason.
	if b := r.broker.Load(); b != nil {
		b.CloseUser(key, "revoked")
	}
	if sc != nil {
		sc.Revoke(key)
	}
	r.obs.Counter(obs.Label("service_user_revoked_total", "user", u.Name)).Inc()
	return nil
}
