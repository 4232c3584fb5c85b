package service_test

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// countingBackend records every backend method the registry calls. It
// also carries DeploymentBackend's two extra entry points (MeasureAsync,
// MeasureStream), so a registry that reached them through a type
// assertion would show up in the counts.
type countingBackend struct {
	mu    sync.Mutex
	calls map[string]int
	sinks int // MeasureAsyncStream calls that were handed a sink
}

func (b *countingBackend) count(method string) {
	b.mu.Lock()
	b.calls[method]++
	b.mu.Unlock()
}

func (b *countingBackend) result(src core.Source, dst ipv4.Addr) *core.Result {
	return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusComplete}
}

func (b *countingBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	b.count("RegisterSource")
	return core.Source{Agent: measure.Agent{Addr: addr}, Atlas: atlas.New(measure.Agent{Addr: addr})}, nil
}

func (b *countingBackend) Measure(_ context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	b.count("Measure")
	return b.result(src, dst)
}

func (b *countingBackend) MeasureAsyncStream(_ context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event), done func(*core.Result)) {
	b.count("MeasureAsyncStream")
	if sink != nil {
		b.mu.Lock()
		b.sinks++
		b.mu.Unlock()
	}
	goMeasure(func() *core.Result { return b.result(src, dst) }, done)
}

func (b *countingBackend) MeasureAsync(_ context.Context, src core.Source, dst ipv4.Addr, done func(*core.Result)) {
	b.count("MeasureAsync")
	done(b.result(src, dst))
}

func (b *countingBackend) MeasureStream(_ context.Context, src core.Source, dst ipv4.Addr, _ func(stream.Event)) *core.Result {
	b.count("MeasureStream")
	return b.result(src, dst)
}

func (b *countingBackend) RefreshAtlas(core.Source) { b.count("RefreshAtlas") }

// TestBackendDispatchPath: every measurement makes exactly one backend
// call — Measure for POST /api/v1/revtr and NDT, MeasureAsyncStream for
// each batch job — with a stream broker attached (the batch sink is
// set) and without one (the sink is nil). No other method is called,
// and the service's per-path counters keep their meaning: NDT
// measurements stay out of service_measure_status_total.
func TestBackendDispatchPath(t *testing.T) {
	for _, withBroker := range []bool{false, true} {
		t.Run(fmt.Sprintf("broker=%v", withBroker), func(t *testing.T) {
			b := &countingBackend{calls: map[string]int{}}
			reg := service.NewRegistry(b, "adm")
			if withBroker {
				reg.EnableStream(stream.Options{})
			}
			ctx, cancel := context.WithCancel(context.Background())
			sc := reg.EnableBatch(ctx, sched.Options{})
			t.Cleanup(func() {
				cancel()
				_ = sc.Drain(context.Background())
			})
			u, err := reg.AddUser("adm", "alice", 4, 100)
			if err != nil {
				t.Fatal(err)
			}
			src, _ := ipv4.ParseAddr("10.0.0.1")
			if _, err := reg.RegisterSource(u.APIKey, src, false); err != nil {
				t.Fatal(err)
			}
			ts := httptestServer(t, reg)
			auth := map[string]string{"X-API-Key": u.APIKey}

			resp := postJSON(t, ts+"/api/v1/revtr", auth,
				map[string]any{"src": src.String(), "dsts": []string{"10.0.1.1", "10.0.1.2"}})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("revtr: %d", resp.StatusCode)
			}
			resp.Body.Close()
			resp = postJSON(t, ts+"/api/v1/ndt", nil,
				map[string]any{"server": src.String(), "client": "10.0.1.3"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ndt: %d", resp.StatusCode)
			}
			resp.Body.Close()
			st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 4, 5, 6))
			if err != nil {
				t.Fatal(err)
			}
			if final := waitDone(t, reg, u.APIKey, st.ID); final.Counts["done"] != 3 {
				t.Fatalf("batch counts = %v, want 3 done", final.Counts)
			}

			b.mu.Lock()
			defer b.mu.Unlock()
			want := map[string]int{"RegisterSource": 1, "Measure": 3, "MeasureAsyncStream": 3}
			for m, n := range b.calls {
				if n != want[m] {
					t.Errorf("%s called %d times, want %d", m, n, want[m])
				}
			}
			for m, n := range want {
				if b.calls[m] != n {
					t.Errorf("%s called %d times, want %d", m, b.calls[m], n)
				}
			}
			wantSinks := 0
			if withBroker {
				wantSinks = 3
			}
			if b.sinks != wantSinks {
				t.Errorf("batch jobs handed %d sinks, want %d", b.sinks, wantSinks)
			}
			o := reg.Obs()
			for name, want := range map[string]uint64{
				"service_measure_total":    2,
				"service_ndt_total":        1,
				"service_batch_exec_total": 3,
				obs.Label("service_measure_status_total", "status", "complete"): 5,
			} {
				if got := o.Counter(name).Value(); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if got := reg.Stats().Measurements; got != 6 {
				t.Errorf("archived %d measurements, want 6", got)
			}
		})
	}
}
