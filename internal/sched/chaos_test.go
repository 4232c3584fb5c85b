package sched_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"revtr/internal/detrand"
	"revtr/internal/obs"
	"revtr/internal/sched"
)

// TestChaosSchedulerAccounting hammers the scheduler from many users
// at once with duplicate-heavy batches, deterministic executor
// failures, and a mid-flight revocation, then checks conservation:
// every admitted job ends in exactly one terminal state and the state
// tallies balance against the submission totals. Run under -race (the
// chaos make target does).
func TestChaosSchedulerAccounting(t *testing.T) {
	for _, seed := range []int64{3, 17, 40} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			var execCalls atomic.Int64
			exec := func(ctx context.Context, job sched.JobRef) (any, error) {
				execCalls.Add(1)
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				// Deterministic per-key failures: ~1/8 of unique pairs fail.
				src, dst := job.Src, job.Dst
				if (uint32(src)^uint32(dst)*2654435761)%8 == 0 {
					return nil, errors.New("injected failure")
				}
				return fmt.Sprintf("r:%s>%s", src, dst), nil
			}
			o := obs.New()
			s := sched.New(spawned(exec), sched.Options{MaxInFlight: 6, QueueCap: 300, Quantum: 3, Obs: o})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			s.Start(ctx)

			const users = 5
			const batchesPerUser = 4
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				batchIDs []string
				admitted int
			)
			for u := 0; u < users; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					name := fmt.Sprintf("user%d", u)
					rng := detrand.New(seed, name)
					for b := 0; b < batchesPerUser; b++ {
						var sp []sched.JobSpec
						n := 20 + int(rng.Intn(30))
						for i := 0; i < n; i++ {
							// Small dst space → heavy duplication within and
							// across users and batches.
							sp = append(sp, sched.JobSpec{
								Src: addr(9),
								Dst: addr(uint32(100 + rng.Intn(40))),
							})
						}
						st, err := s.Submit(context.Background(), name, sp)
						if err != nil && !errors.Is(err, sched.ErrOverloaded) && !errors.Is(err, sched.ErrRevoked) {
							t.Errorf("submit: %v", err)
							return
						}
						if errors.Is(err, sched.ErrRevoked) {
							return
						}
						mu.Lock()
						batchIDs = append(batchIDs, st.ID)
						admitted += len(st.Jobs)
						mu.Unlock()
					}
				}(u)
			}
			// Revoke one user while submissions and dispatch are running.
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(5 * time.Millisecond)
				s.Revoke("user3")
			}()
			wg.Wait()

			terminal := map[string]int{}
			total := 0
			for _, id := range batchIDs {
				st := waitBatch(t, s, id)
				for _, j := range st.Jobs {
					terminal[j.State]++
					total++
					switch j.State {
					case "done", "coalesced":
						if j.Result == nil {
							t.Errorf("terminal %s job without result", j.State)
						}
					case "failed", "shed":
						if j.Error == "" {
							t.Errorf("terminal %s job without error", j.State)
						}
					case "queued", "running":
						t.Errorf("Wait returned with non-terminal job state %q", j.State)
					}
				}
			}
			if total != admitted {
				t.Fatalf("job conservation broken: %d admitted, %d accounted", admitted, total)
			}
			if terminal["done"]+terminal["coalesced"]+terminal["failed"]+terminal["shed"] != total {
				t.Fatalf("terminal states don't balance: %v vs total %d", terminal, total)
			}
			// Coalescing must have eliminated most executor work: the dst
			// space is 40 wide, so unique (src,dst) ≤ 40 per cache window.
			// Failures are never cached and can re-run, as can post-revoke
			// promotions, but the executor can never run more than once
			// per non-coalesced terminal job.
			if execCalls.Load() > int64(terminal["done"]+terminal["failed"]) {
				t.Fatalf("executor ran %d times for %d leader-terminal jobs",
					execCalls.Load(), terminal["done"]+terminal["failed"])
			}
			if terminal["coalesced"] == 0 {
				t.Fatal("duplicate-heavy chaos run coalesced nothing")
			}
			// Metrics agree with the per-job ledger.
			if got := o.Counter("sched_shed_total").Value(); got != uint64(terminal["shed"]) {
				t.Fatalf("sched_shed_total = %d, ledger says %d", got, terminal["shed"])
			}
			if got := o.Counter("sched_coalesced_total").Value(); got != uint64(terminal["coalesced"]) {
				t.Fatalf("sched_coalesced_total = %d, ledger says %d", got, terminal["coalesced"])
			}
			if depth := s.QueueDepth(); depth != 0 {
				t.Fatalf("queue depth %d after drain", depth)
			}
		})
	}
}
