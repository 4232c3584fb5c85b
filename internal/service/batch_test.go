package service_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"revtr"
	"revtr/internal/atlas"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/obs"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

// goMeasure is the MeasureAsyncStream of a test backend whose
// measurement blocks: it runs measure on its own goroutine and hands the
// result to done, reporting a panic as done(nil) the way the engine's
// resumable driver does.
func goMeasure(measure func() *core.Result, done func(*core.Result)) {
	go func() {
		done(func() (res *core.Result) {
			defer func() {
				if recover() != nil {
					res = nil
				}
			}()
			return measure()
		}())
	}()
}

// gatedBackend holds every measurement until release is closed, then
// completes it. Lets tests park batch jobs in flight across ResetDay
// or a revocation.
type gatedBackend struct {
	entered chan struct{} // one tick per Measure entry
	release chan struct{} // close to let measurements finish
}

func (b *gatedBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	return core.Source{Agent: measure.Agent{Addr: addr}, Atlas: atlas.New(measure.Agent{Addr: addr})}, nil
}

func (b *gatedBackend) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	select {
	case <-b.release:
		return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusComplete}
	case <-ctx.Done():
		return &core.Result{Src: src.Agent.Addr, Dst: dst, Status: core.StatusFailed}
	}
}

func (b *gatedBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, _ func(stream.Event), done func(*core.Result)) {
	goMeasure(func() *core.Result { return b.Measure(ctx, src, dst) }, done)
}

func (b *gatedBackend) RefreshAtlas(core.Source) {}

// batchRegistry builds a registry over a gated backend with the batch
// scheduler enabled, one registered source, and one user.
func batchRegistry(t *testing.T, maxPerDay int) (*service.Registry, *gatedBackend, *service.User, ipv4.Addr) {
	t.Helper()
	bb := &gatedBackend{entered: make(chan struct{}, 1024), release: make(chan struct{})}
	reg := service.NewRegistry(bb, "adm")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	sc := reg.EnableBatch(ctx, sched.Options{MaxInFlight: 4, QueueCap: 256})
	t.Cleanup(func() {
		cancel()
		_ = sc.Drain(context.Background())
	})
	u, err := reg.AddUser("adm", "alice", 4, maxPerDay)
	if err != nil {
		t.Fatal(err)
	}
	srcAddr, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, srcAddr, false); err != nil {
		t.Fatal(err)
	}
	return reg, bb, u, srcAddr
}

func pairs(src ipv4.Addr, dstLast ...int) []sched.JobSpec {
	var sp []sched.JobSpec
	for _, n := range dstLast {
		dst, _ := ipv4.ParseAddr(fmt.Sprintf("10.0.1.%d", n))
		sp = append(sp, sched.JobSpec{Src: src, Dst: dst})
	}
	return sp
}

// waitDone polls a batch until every job is terminal.
func waitDone(t *testing.T, reg *service.Registry, key, id string) sched.BatchStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second) //revtr:wallclock test timeout
	for {
		st, err := reg.BatchStatus(key, id)
		if err != nil {
			t.Fatalf("batch status: %v", err)
		}
		if st.Done {
			return st
		}
		if time.Now().After(deadline) { //revtr:wallclock test timeout
			t.Fatalf("batch %s never finished: %+v", id, st.Counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func usedToday(reg *service.Registry, user string) int64 {
	return reg.Obs().Gauge(obs.Label("service_user_used_today", "user", user)).Value()
}

// TestBatchQuotaChargedAtAdmissionOnly: the daily budget is charged
// when a job is admitted, only for jobs that drive their own
// measurement; duplicates and day-cache hits are free.
func TestBatchQuotaChargedAtAdmissionOnly(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 3)
	close(bb.release) // measurements complete immediately

	// 5 jobs, 2 unique pairs: 2 admitted (charged), 3 coalesced (free).
	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 1, 2, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, reg, u.APIKey, st.ID)
	if st.Counts["done"] != 2 || st.Counts["coalesced"] != 3 {
		t.Fatalf("counts = %v, want 2 done + 3 coalesced", st.Counts)
	}
	if got := usedToday(reg, "alice"); got != 2 {
		t.Fatalf("used today = %d, want 2 (leaders only)", got)
	}

	// Same pairs again: all day-cache hits, still free.
	st2, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Counts["coalesced"] != 2 || !st2.Done {
		t.Fatalf("repeat batch not served from day cache: %v", st2.Counts)
	}
	if got := usedToday(reg, "alice"); got != 2 {
		t.Fatalf("cache hits charged quota: used = %d", got)
	}

	// New pairs past the remaining budget (1 of 3 left) shed with the
	// quota error; the admitted one still runs.
	st3, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	st3 = waitDone(t, reg, u.APIKey, st3.ID)
	if st3.Counts["done"] != 1 || st3.Counts["shed"] != 2 {
		t.Fatalf("quota shed wrong: %v", st3.Counts)
	}
	for _, j := range st3.Jobs {
		if j.State == "shed" && !strings.Contains(j.Error, "quota") {
			t.Fatalf("shed job error %q does not name the quota", j.Error)
		}
	}
	if got := usedToday(reg, "alice"); got != 3 {
		t.Fatalf("used today = %d, want 3", got)
	}
}

// TestBatchResetDayNoDoubleCharge is the midnight regression: jobs
// admitted (and charged) before ResetDay complete after it without
// charging the new day's budget — completion never touches quota.
func TestBatchResetDayNoDoubleCharge(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 4)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := usedToday(reg, "alice"); got != 3 {
		t.Fatalf("admission charge = %d, want 3", got)
	}
	<-bb.entered // at least one measurement is parked in flight

	reg.ResetDay() // midnight: quotas roll while the queue is non-empty
	if got := usedToday(reg, "alice"); got != 0 {
		t.Fatalf("used today after reset = %d, want 0", got)
	}

	close(bb.release)
	st = waitDone(t, reg, u.APIKey, st.ID)
	if st.Counts["done"] != 3 {
		t.Fatalf("counts = %v, want 3 done", st.Counts)
	}
	// The old day's in-flight jobs completed without re-charging.
	if got := usedToday(reg, "alice"); got != 0 {
		t.Fatalf("completion double-charged the new day: used = %d", got)
	}
	// The whole new-day budget is available.
	st2, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 11, 12, 13, 14))
	if err != nil {
		t.Fatal(err)
	}
	if st2.Counts["shed"] != 0 {
		t.Fatalf("new day budget partially consumed: %v", st2.Counts)
	}
	waitDone(t, reg, u.APIKey, st2.ID)
}

// TestBatchRevokeUserCancelsJobs: revoking a key fails its queued jobs
// and interrupts its running ones, and the key stops authenticating.
func TestBatchRevokeUserCancelsJobs(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)

	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3, 4, 5, 6, 7, 8))
	if err != nil {
		t.Fatal(err)
	}
	<-bb.entered // a measurement is parked in flight

	if err := reg.RevokeUser("wrong", u.APIKey); !errors.Is(err, service.ErrUnauthorized) {
		t.Fatalf("bad admin key revoked: %v", err)
	}
	if err := reg.RevokeUser("adm", u.APIKey); err != nil {
		t.Fatal(err)
	}
	if err := reg.RevokeUser("adm", u.APIKey); !errors.Is(err, service.ErrUnknownUser) {
		t.Fatalf("double revoke: %v", err)
	}
	close(bb.release)

	// The revoked key no longer authenticates, so the admin key reads
	// the batch.
	if _, err := reg.BatchStatus(u.APIKey, st.ID); !errors.Is(err, service.ErrUnauthorized) {
		t.Fatalf("revoked key still reads batches: %v", err)
	}
	fin := waitDone(t, reg, "adm", st.ID)
	if fin.Counts["failed"] != len(fin.Jobs) {
		t.Fatalf("counts after revoke = %v, want all failed", fin.Counts)
	}
	for _, j := range fin.Jobs {
		if !strings.Contains(j.Error, "revoked") {
			t.Fatalf("job error %q does not name revocation", j.Error)
		}
	}
	if _, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 9)); !errors.Is(err, service.ErrUnauthorized) {
		t.Fatalf("revoked key still submits: %v", err)
	}
}

// TestBatchRestartRecoversArchive: batch measurements archived through
// a durable store survive a restart bit-identically and keep their IDs.
func TestBatchRestartRecoversArchive(t *testing.T) {
	dir := t.TempDir()
	arch, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bb := &gatedBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	close(bb.release)
	reg := service.NewRegistryWithArchive(bb, "adm", arch)
	ctx, cancel := context.WithCancel(context.Background())
	sc := reg.EnableBatch(ctx, sched.Options{MaxInFlight: 2})
	u, err := reg.AddUser("adm", "alice", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := ipv4.ParseAddr("10.0.0.1")
	if _, err := reg.RegisterSource(u.APIKey, src, false); err != nil {
		t.Fatal(err)
	}
	st, err := reg.SubmitBatch(context.Background(), u.APIKey, pairs(src, 1, 2, 3, 4, 5))
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, reg, u.APIKey, st.ID)
	var before []service.Measurement
	for i := 0; i < 5; i++ {
		m, ok := reg.Get(i)
		if !ok {
			t.Fatalf("measurement %d missing before restart", i)
		}
		before = append(before, *m)
	}
	cancel()
	if err := sc.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: a fresh registry over the same directory serves the same
	// measurement set, and new IDs continue after the recovered ones.
	arch2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer arch2.Close()
	reg2 := service.NewRegistryWithArchive(bb, "adm", arch2)
	for i, want := range before {
		got, ok := reg2.Get(i)
		if !ok {
			t.Fatalf("measurement %d lost in restart", i)
		}
		if fmt.Sprintf("%+v", *got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("measurement %d changed across restart:\n%+v\n%+v", i, *got, want)
		}
	}
	if reg2.Stats().Measurements != 5 {
		t.Fatalf("recovered %d measurements", reg2.Stats().Measurements)
	}
	u2, err := reg2.AddUser("adm", "bob", 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.RegisterSource(u2.APIKey, src, false); err != nil {
		t.Fatal(err)
	}
	m, err := reg2.Measure(context.Background(), u2.APIKey, src, mustAddr("10.0.2.9"))
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 5 {
		t.Fatalf("post-restart ID = %d, want 5", m.ID)
	}
}

func mustAddr(s string) ipv4.Addr {
	a, err := ipv4.ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// httptestServer serves an API over reg for the test's lifetime.
func httptestServer(t *testing.T, reg *service.Registry) string {
	t.Helper()
	ts := httptest.NewServer(service.NewAPI(reg))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestBatchHTTPFlow drives the REST surface end to end over the
// simulated deployment: submit a duplicate-heavy batch, poll to
// completion, check coalescing did the measurement work once per
// unique pair, and check ownership rules.
func TestBatchHTTPFlow(t *testing.T) {
	cfg := revtr.DefaultConfig(300)
	cfg.Seed = 31
	cfg.Topology.Seed = 31
	d := revtr.Build(cfg)
	reg := service.NewRegistry(service.NewDeploymentBackend(d), "admin-secret")
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	reg.EnableBatch(ctx, sched.Options{})
	ts := httptestServer(t, reg)

	alice := decode[service.User](t, postJSON(t, ts+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"},
		map[string]any{"name": "alice", "maxPerDay": 100}))
	bob := decode[service.User](t, postJSON(t, ts+"/api/v1/users",
		map[string]string{"X-Admin-Key": "admin-secret"},
		map[string]any{"name": "bob", "maxPerDay": 100}))

	srcHost := d.PickSourceHost(0)
	resp := postJSON(t, ts+"/api/v1/sources",
		map[string]string{"X-API-Key": alice.APIKey},
		map[string]any{"addr": srcHost.Addr.String()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add source: %d", resp.StatusCode)
	}
	resp.Body.Close()

	var dsts []string
	for i, h := range d.OnePerPrefix() {
		if h.AS != srcHost.AS {
			dsts = append(dsts, h.Addr.String())
		}
		if len(dsts) == 3 || i > 50 {
			break
		}
	}
	// 9 jobs over 3 unique pairs.
	var reqPairs []map[string]string
	for rep := 0; rep < 3; rep++ {
		for _, dst := range dsts {
			reqPairs = append(reqPairs, map[string]string{"src": srcHost.Addr.String(), "dst": dst})
		}
	}
	resp = postJSON(t, ts+"/api/v1/batch",
		map[string]string{"X-API-Key": alice.APIKey}, map[string]any{"pairs": reqPairs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit: %d", resp.StatusCode)
	}
	st := decode[sched.BatchStatus](t, resp)
	if st.ID == "" || len(st.Jobs) != 9 {
		t.Fatalf("admission snapshot: %+v", st)
	}

	deadline := time.Now().Add(15 * time.Second) //revtr:wallclock test timeout
	for !st.Done {
		if time.Now().After(deadline) { //revtr:wallclock test timeout
			t.Fatalf("batch never finished: %v", st.Counts)
		}
		time.Sleep(5 * time.Millisecond)
		r, err := http.NewRequest("GET", ts+"/api/v1/batch/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Header.Set("X-API-Key", alice.APIKey)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: %d", resp.StatusCode)
		}
		st = decode[sched.BatchStatus](t, resp)
	}
	if st.Counts["done"] != 3 || st.Counts["coalesced"] != 6 {
		t.Fatalf("counts = %v, want 3 done + 6 coalesced", st.Counts)
	}
	for _, j := range st.Jobs {
		if j.Result == nil {
			t.Fatalf("terminal job %d without result", j.Index)
		}
	}
	// The executor ran once per unique pair: the /metrics text carries
	// the batch exec counter.
	mresp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "service_batch_exec_total 3") {
		t.Fatalf("metrics missing 'service_batch_exec_total 3':\n%s", body)
	}

	// Ownership: bob cannot see alice's batch; a bogus key cannot see
	// anything; the admin key can.
	for _, tc := range []struct {
		key  string
		want int
	}{
		{bob.APIKey, http.StatusNotFound},
		{"bogus", http.StatusUnauthorized},
		{"admin-secret", http.StatusOK},
	} {
		r, _ := http.NewRequest("GET", ts+"/api/v1/batch/"+st.ID, nil)
		r.Header.Set("X-API-Key", tc.key)
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("key %q: status %d, want %d", tc.key, resp.StatusCode, tc.want)
		}
	}

	// Revoke alice over HTTP; her key stops working.
	r, _ := http.NewRequest("DELETE", ts+"/api/v1/users/"+alice.APIKey, nil)
	r.Header.Set("X-Admin-Key", "admin-secret")
	dresp, err := http.DefaultClient.Do(r)
	if err != nil || dresp.StatusCode != http.StatusOK {
		t.Fatalf("revoke: %v %d", err, dresp.StatusCode)
	}
	dresp.Body.Close()
	resp = postJSON(t, ts+"/api/v1/batch",
		map[string]string{"X-API-Key": alice.APIKey}, map[string]any{"pairs": reqPairs})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("revoked key submits: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestBatchPromotionChargesQuota: a subscriber promoted to flight
// leader after its leader's user is revoked runs a real measurement it
// never paid for at admission (it rode the flight as a free coalesced
// duplicate), so promotion charges its user's daily budget — and sheds
// the job with the quota error instead when that budget is exhausted,
// handing the flight to the next subscriber in line.
func TestBatchPromotionChargesQuota(t *testing.T) {
	bb := &gatedBackend{entered: make(chan struct{}, 64), release: make(chan struct{})}
	reg := service.NewRegistry(bb, "adm")
	ctx, cancel := context.WithCancel(context.Background())
	sc := reg.EnableBatch(ctx, sched.Options{MaxInFlight: 4, QueueCap: 64})
	t.Cleanup(func() {
		cancel()
		_ = sc.Drain(context.Background())
	})

	alice, err := reg.AddUser("adm", "alice", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	bob, err := reg.AddUser("adm", "bob", 4, 1) // budget of exactly 1
	if err != nil {
		t.Fatal(err)
	}
	carol, err := reg.AddUser("adm", "carol", 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	src := mustAddr("10.0.0.1")
	if _, err := reg.RegisterSource(alice.APIKey, src, false); err != nil {
		t.Fatal(err)
	}

	// Bob burns his whole budget on a measurement of his own (parked in
	// flight behind the gate).
	stBobOwn, err := reg.SubmitBatch(context.Background(), bob.APIKey, pairs(src, 99))
	if err != nil {
		t.Fatal(err)
	}
	<-bb.entered
	// Alice leads the shared pair, in flight.
	if _, err := reg.SubmitBatch(context.Background(), alice.APIKey, pairs(src, 1)); err != nil {
		t.Fatal(err)
	}
	<-bb.entered
	// Bob, then carol, coalesce onto alice's flight — free at admission.
	stBobX, err := reg.SubmitBatch(context.Background(), bob.APIKey, pairs(src, 1))
	if err != nil {
		t.Fatal(err)
	}
	stCarolX, err := reg.SubmitBatch(context.Background(), carol.APIKey, pairs(src, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got := usedToday(reg, "bob"); got != 1 {
		t.Fatalf("bob used = %d before revocation, want 1", got)
	}
	if got := usedToday(reg, "carol"); got != 0 {
		t.Fatalf("carol used = %d before revocation, want 0", got)
	}

	// Revoking alice interrupts her leader; promotion walks the
	// subscribers in admission order: bob first (broke — shed), then
	// carol (charged, runs the measurement).
	if err := reg.RevokeUser("adm", alice.APIKey); err != nil {
		t.Fatal(err)
	}
	close(bb.release)

	fin := waitDone(t, reg, bob.APIKey, stBobX.ID)
	if fin.Counts["shed"] != 1 {
		t.Fatalf("bob's coalesced job after promotion: %v, want shed", fin.Counts)
	}
	if !strings.Contains(fin.Jobs[0].Error, "quota") {
		t.Fatalf("bob's shed error %q does not name the quota", fin.Jobs[0].Error)
	}
	if got := usedToday(reg, "bob"); got != 1 {
		t.Fatalf("bob used = %d after failed promotion, want 1 (never charged)", got)
	}

	fin = waitDone(t, reg, carol.APIKey, stCarolX.ID)
	if fin.Counts["done"] != 1 {
		t.Fatalf("carol's promoted job: %v, want done", fin.Counts)
	}
	if got := usedToday(reg, "carol"); got != 1 {
		t.Fatalf("carol used = %d after promotion, want 1 (charged at promotion)", got)
	}

	// Bob's own measurement still completes normally.
	fin = waitDone(t, reg, bob.APIKey, stBobOwn.ID)
	if fin.Counts["done"] != 1 {
		t.Fatalf("bob's own job: %v, want done", fin.Counts)
	}
}

// TestBatchHTTPPairCap: POST /api/v1/batch rejects oversized
// submissions with 400 before allocating any scheduler state — the
// queue cap sheds jobs but cannot stop a single request from allocating
// millions of retained Job entries.
func TestBatchHTTPPairCap(t *testing.T) {
	reg, bb, u, src := batchRegistry(t, 100)
	close(bb.release)
	api := service.NewAPI(reg)
	api.MaxBatchPairs = 3
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)

	var reqPairs []map[string]string
	for i := 1; i <= 4; i++ {
		reqPairs = append(reqPairs, map[string]string{
			"src": src.String(), "dst": fmt.Sprintf("10.0.1.%d", i)})
	}
	resp := postJSON(t, ts.URL+"/api/v1/batch",
		map[string]string{"X-API-Key": u.APIKey}, map[string]any{"pairs": reqPairs})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "batch too large") {
		t.Fatalf("oversized batch error body %q", body)
	}

	// At the cap, the submission is accepted.
	resp = postJSON(t, ts.URL+"/api/v1/batch",
		map[string]string{"X-API-Key": u.APIKey}, map[string]any{"pairs": reqPairs[:3]})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("at-cap batch: status %d, want 202", resp.StatusCode)
	}
	st := decode[sched.BatchStatus](t, resp)
	waitDone(t, reg, u.APIKey, st.ID)
}
