// Package schedq mirrors the scheduler half of the repo's
// sched↔registry shape: it holds its own lock while charging admission
// through a function-typed callback that lands in the registry package.
// The static resolver cannot see through the field call, so the edge is
// declared with //revtr:calls — exactly how internal/sched declares its
// TryCharge edge.
package schedq

import "sync"

// Q is the scheduler-like half: one lock, one admission callback.
type Q struct {
	mu        sync.Mutex
	TryCharge func(user string) bool
	OnJob     func(user string)
	pending   int
}

// Submit admits one job under q.mu, charging quota through the callback
// while the lock is held. This is the forward half of the lock order:
// Q.mu → Registry.mu.
func (q *Q) Submit(user string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	ok := q.TryCharge(user) //revtr:calls revtr/internal/lint/lockorder/testdata/src/regq.Registry.tryCharge
	if ok {
		q.pending++
	}
	return ok
}

// Notify publishes through an indirect call whose first declared target
// names no method of the loaded regq package: the edge it meant to add
// is missing, which is reported. The second target lives in a package
// outside the load and is tolerated.
func (q *Q) Notify(user string) {
	//revtr:calls revtr/internal/lint/lockorder/testdata/src/regq.Registry.gone
	q.OnJob(user) // want "//revtr:calls target revtr/internal/lint/lockorder/testdata/src/regq\\.Registry\\.gone names no function"
	q.OnJob(user) //revtr:calls example.com/elsewhere.Sink.Publish
}
