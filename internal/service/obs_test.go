package service_test

import (
	"context"

	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"revtr"
	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// fakeBackend is a controllable service.Backend: it can panic on demand,
// and its Measure/RefreshAtlas genuinely read and write the shared
// core.Source atlas so the race detector sees any unserialized access.
type fakeBackend struct {
	mu        sync.Mutex
	panicNext bool
}

func (b *fakeBackend) armPanic() {
	b.mu.Lock()
	b.panicNext = true
	b.mu.Unlock()
}

func (b *fakeBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	a := atlas.New(measure.Agent{Addr: addr})
	// A realistically sized atlas so the concurrent read/write windows in
	// Measure and RefreshAtlas are wide enough for the race detector.
	for i := 0; i < 256; i++ {
		a.Add("probe", int32(i), []ipv4.Addr{addr}, 0)
	}
	return core.Source{Agent: measure.Agent{Addr: addr}, Atlas: a}, nil
}

func (b *fakeBackend) Measure(_ context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	b.mu.Lock()
	p := b.panicNext
	b.panicNext = false
	b.mu.Unlock()
	if p {
		panic("fake backend exploded")
	}
	// Read the atlas the way the engine does during intersection.
	// (Read-only: concurrent measurements may share the atlas lock;
	// only the maintenance refresh writes, exclusively.) The Gosched
	// forces the read window to overlap a concurrent refresh so the race
	// detector can observe any unserialized access.
	useful := 0
	for i, e := range src.Atlas.Entries {
		if e.WasUseful() {
			useful++
		}
		if i%32 == 0 {
			runtime.Gosched()
		}
	}
	_ = useful
	return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusComplete}
}

func (b *fakeBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, _ func(stream.Event), done func(*core.Result)) {
	goMeasure(func() *core.Result { return b.Measure(ctx, src, dst) }, done)
}

func (b *fakeBackend) RefreshAtlas(src core.Source) {
	// Mutate entries the way atlas.Service.Refresh does: reset usefulness
	// and bump measurement times.
	src.Atlas.ResetUseful()
	for i, e := range src.Atlas.Entries {
		e.MarkUseful()
		e.MeasuredAtUS++
		if i%32 == 0 {
			runtime.Gosched()
		}
	}
}

func fakeRegistry(t *testing.T, maxParallel, maxPerDay int) (*service.Registry, *fakeBackend, *service.User, ipv4.Addr) {
	t.Helper()
	fb := &fakeBackend{}
	reg := service.NewRegistry(fb, "adm")
	u, err := reg.AddUser("adm", "alice", maxParallel, maxPerDay)
	if err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, srcAddr, false); err != nil {
		t.Fatal(err)
	}
	return reg, fb, u, srcAddr
}

// TestBackendPanicReleasesSlot: in the seed, a panicking backend unwound
// through Registry.Measure between inFlight++ and inFlight--, permanently
// consuming one of the user's MaxParallel slots. The slot must be
// released and the panic surfaced as a failed measurement.
func TestBackendPanicReleasesSlot(t *testing.T) {
	reg, fb, u, srcAddr := fakeRegistry(t, 1, 100) // exactly one parallel slot
	dst, _ := ipv4.ParseAddr("10.0.0.2")

	fb.armPanic()
	m, err := reg.Measure(context.Background(), u.APIKey, srcAddr, dst)
	if err != nil {
		t.Fatalf("panic must surface as a failed measurement, got error %v", err)
	}
	if m.Status != "failed" {
		t.Fatalf("status = %q, want failed", m.Status)
	}

	// The single slot must be free again: a second measurement runs
	// instead of returning ErrRateLimited forever.
	m2, err := reg.Measure(context.Background(), u.APIKey, srcAddr, dst)
	if err != nil {
		t.Fatalf("slot leaked: second measure failed with %v", err)
	}
	if m2.Status != "complete" {
		t.Fatalf("second measure status = %q", m2.Status)
	}
	if got := reg.Obs().Counter("service_backend_panics_total").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// Both attempts are archived.
	if st := reg.Stats(); st.Measurements != 2 {
		t.Fatalf("stats.Measurements = %d, want 2", st.Measurements)
	}
}

// TestConcurrentMeasureAndMaintenance exercises the DailyMaintenance /
// Measure race under the race detector: maintenance rewrites each
// source's atlas while measurements read it. The per-source RWMutex must
// serialize them.
func TestConcurrentMeasureAndMaintenance(t *testing.T) {
	reg, _, u, srcAddr := fakeRegistry(t, 64, 1<<20)
	src2, _ := ipv4.ParseAddr("10.0.0.3")
	if _, err := reg.RegisterSource(u.APIKey, src2, false); err != nil {
		t.Fatal(err)
	}
	dst, _ := ipv4.ParseAddr("10.9.9.9")

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := srcAddr
				if (g+i)%2 == 0 {
					s = src2
				}
				if _, err := reg.Measure(context.Background(), u.APIKey, s, dst); err != nil {
					t.Errorf("measure: %v", err)
					return
				}
				if i%10 == 0 {
					reg.UsefulEntries(s)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			reg.DailyMaintenance()
		}
	}()
	wg.Wait()
}

// TestMetricsAndHealthz drives one real measurement through the HTTP API
// with engine metrics attached and asserts GET /metrics reports nonzero
// engine stage counters and latency histograms — the acceptance check of
// the observability tentpole.
func TestMetricsAndHealthz(t *testing.T) {
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	backend := service.NewDeploymentBackend(d)
	reg := service.NewRegistry(backend, "admin-secret")
	backend.Engine.SetMetrics(core.NewMetrics(reg.Obs()))
	ts := httptest.NewServer(service.NewAPI(reg))
	t.Cleanup(ts.Close)

	// Liveness probe.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz body = %q", body)
	}

	// One full measurement through the API.
	resp = postJSON(t, ts.URL+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"},
		map[string]any{"name": "alice"})
	u := decode[service.User](t, resp)
	srcHost := d.PickSourceHost(0)
	resp = postJSON(t, ts.URL+"/api/v1/sources",
		map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"addr": srcHost.Addr.String()})
	resp.Body.Close()
	var dst string
	for _, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			dst = h.Addr.String()
			break
		}
	}
	resp = postJSON(t, ts.URL+"/api/v1/revtr",
		map[string]string{"X-API-Key": u.APIKey},
		map[string]any{"src": srcHost.Addr.String(), "dsts": []string{dst}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// The metrics endpoint must now report engine and service activity.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v %v", err, resp)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	if !strings.Contains(text, "service_measure_total 1") {
		t.Errorf("metrics missing service_measure_total:\n%s", text)
	}
	if !strings.Contains(text, "engine_measure_wall_us_count 1") {
		t.Errorf("metrics missing engine latency histogram:\n%s", text)
	}
	// At least one engine stage counter must be nonzero after a real
	// measurement (which stage depends on the topology).
	stageTotal := uint64(0)
	for _, c := range []string{
		"engine_stage_atlas_intersect_total",
		"engine_stage_direct_rr_total",
		"engine_stage_spoofed_rr_total",
		"engine_stage_symmetry_total",
	} {
		stageTotal += reg.Obs().Counter(c).Value()
	}
	if stageTotal == 0 {
		t.Errorf("no engine stage counter advanced:\n%s", text)
	}
	if !strings.Contains(text, `service_user_inflight{user="alice"} 0`) {
		t.Errorf("metrics missing per-user quota gauge:\n%s", text)
	}
	if !strings.Contains(text, "http_requests_total") {
		t.Errorf("metrics missing http request counters:\n%s", text)
	}
}
