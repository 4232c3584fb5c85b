package service_test

// Async batch dispatch: the batch scheduler starts every job through
// Backend.MeasureAsyncStream, so the number of measurements in flight is
// bounded by MaxInFlight suspended measurements — not by goroutines.

import (
	"context"
	"sync"
	"testing"
	"time"

	"revtr"
	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// asyncGate is a Backend that parks every batch measurement as a
// stored completion callback until the test releases it — the
// measurement holds no goroutine while parked, exactly like a
// suspended machine.
type asyncGate struct {
	mu      sync.Mutex
	pending []func()
	started chan struct{} // one tick per MeasureAsyncStream entry
}

func (b *asyncGate) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	return core.Source{Agent: measure.Agent{Addr: addr}, Atlas: atlas.New(measure.Agent{Addr: addr})}, nil
}

// Measure is the blocking path; batch dispatch must never use it.
func (b *asyncGate) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusComplete}
}

func (b *asyncGate) RefreshAtlas(core.Source) {}

func (b *asyncGate) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, _ func(stream.Event), done func(*core.Result)) {
	res := &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusComplete}
	b.mu.Lock()
	b.pending = append(b.pending, func() { done(res) })
	b.mu.Unlock()
	b.started <- struct{}{}
}

// flushOne releases the oldest parked measurement.
func (b *asyncGate) flushOne() bool {
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.mu.Unlock()
		return false
	}
	f := b.pending[0]
	b.pending = b.pending[1:]
	b.mu.Unlock()
	f()
	return true
}

// TestBatchAsyncInFlightBeyondWorkers: with MaxInFlight of 8, eight
// measurements enter the backend before any completes — none holds a
// goroutine while parked — and a ninth is dispatched only once a slot
// frees.
func TestBatchAsyncInFlightBeyondWorkers(t *testing.T) {
	const maxInFlight = 8
	bb := &asyncGate{started: make(chan struct{}, 64)}
	reg := service.NewRegistry(bb, "adm")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sc := reg.EnableBatch(ctx, sched.Options{MaxInFlight: maxInFlight})
	t.Cleanup(func() {
		cancel()
		_ = sc.Drain(context.Background())
	})
	u, err := reg.AddUser("adm", "alice", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, srcAddr, false); err != nil {
		t.Fatal(err)
	}

	st, err := reg.SubmitBatch(context.Background(), u.APIKey,
		pairs(srcAddr, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxInFlight; i++ {
		select {
		case <-bb.started:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d measurements entered the backend concurrently", i, maxInFlight)
		}
	}
	// The dispatcher is now out of slots; completing one measurement
	// must hand its slot to job nine.
	if !bb.flushOne() {
		t.Fatal("nothing parked to flush")
	}
	select {
	case <-bb.started:
	case <-time.After(10 * time.Second):
		t.Fatal("freed in-flight slot was never handed to the next queued job")
	}

	// Release everything else and let the batch finish.
	go func() {
		for i := 0; i < 11; i++ {
			select {
			case <-bb.started:
			case <-time.After(10 * time.Second):
				return
			}
		}
	}()
	for {
		if !bb.flushOne() {
			bs, err := reg.BatchStatus(u.APIKey, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if bs.Done {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	final := waitDone(t, reg, u.APIKey, st.ID)
	if final.Counts["done"] != 12 {
		t.Fatalf("counts = %v, want 12 done", final.Counts)
	}
	if got := reg.Stats().Measurements; got != 12 {
		t.Fatalf("archived %d measurements, want 12", got)
	}
	if got := reg.Obs().Counter("service_batch_exec_total").Value(); got != 12 {
		t.Fatalf("service_batch_exec_total = %d, want 12", got)
	}
}

// TestBatchAsyncEndToEnd: the real engine's MeasureAsyncStream drives a batch
// through the service layer — submitted jobs complete, results carry
// reverse paths, and measurements land in the archive.
func TestBatchAsyncEndToEnd(t *testing.T) {
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "adm")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sc := reg.EnableBatch(ctx, sched.Options{MaxInFlight: 256})
	t.Cleanup(func() {
		cancel()
		_ = sc.Drain(context.Background())
	})
	u, err := reg.AddUser("adm", "alice", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	srcHost := d.PickSourceHost(0)
	if _, err := reg.RegisterSource(u.APIKey, srcHost.Addr, false); err != nil {
		t.Fatal(err)
	}
	var sp []sched.JobSpec
	for _, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			sp = append(sp, sched.JobSpec{Src: srcHost.Addr, Dst: h.Addr})
		}
		if len(sp) == 6 {
			break
		}
	}
	if len(sp) == 0 {
		t.Skip("no destinations")
	}
	st, err := reg.SubmitBatch(context.Background(), u.APIKey, sp)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, reg, u.APIKey, st.ID)
	if final.Counts["done"] != len(sp) {
		t.Fatalf("counts = %v, want %d done", final.Counts, len(sp))
	}
	if got := reg.Stats().Measurements; got != len(sp) {
		t.Fatalf("archived %d measurements, want %d", got, len(sp))
	}
}
