package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/netsim/topology"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

const adminKey = "perfbench-admin"

// nSources is the number of registered sources; the pair universe is
// these sources × one responsive host per prefix.
const nSources = 4

// worldSeed is revtr-server's default -seed. The world stays fixed
// across benchmark seeds: worlds differ from each other far more than
// any bound the benchmark could keep (see STEADINESS.md), so --seed
// drives the generated inputs only.
const worldSeed = 1

// world is one built simulated Internet and what building it cost.
type world struct {
	d             *revtr.Deployment
	build, survey time.Duration
}

// buildWorld builds revtr-server's default world. The survey is split
// out of revtr.Build so the two parts can be timed; the result is the
// deployment revtr.Build returns.
func buildWorld(cfg config) *world {
	t0 := time.Now()
	dc := revtr.DefaultConfig(cfg.ASes)
	dc.Seed = worldSeed
	dc.Topology.Seed = worldSeed
	dc.Sites = cfg.Sites
	dc.SkipSurvey = true
	d := revtr.Build(dc)
	t1 := time.Now()
	d.RunSurvey()
	d.BackgroundProbes = d.Prober.Count
	return &world{d: d, build: t1.Sub(t0), survey: time.Since(t1)}
}

// server is one assembled revtr-server listening on loopback, plus the
// handles the benchmark needs to check and measure it from outside.
type server struct {
	d        *revtr.Deployment
	backend  *service.DeploymentBackend
	wrap     *tracedBackend // nil on untraced runs
	reg      *service.Registry
	sc       *sched.Scheduler
	broker   *stream.Broker
	archive  *store.Log
	storeDir string
	srv      *http.Server
	serveErr chan error
	stop     context.CancelFunc
	base     string
	client   *http.Client
	users    []string // API keys
	sources  []*topology.Host
	// assemble is the time from the start of assembly to the last
	// registered source; register is the source registrations alone.
	assemble, register time.Duration
}

// startServer assembles a fresh server over the world the way
// cmd/revtr-server does with the flags the workload implies, then
// creates the users and registers the sources over HTTP.
func startServer(cfg config, w workload, wd *world, tr *tracer, storeDir string) (*server, error) {
	t0 := time.Now()
	d := wd.d
	opts := core.Revtr20Options()
	var seg *segments.Store
	if w.segments {
		// -segment-ttl 24h: every segment stays fresh for the whole run.
		seg = segments.New(segments.Options{TTLUS: (24 * time.Hour).Microseconds()})
		opts.SegmentStore = seg
	}
	s := &server{d: d, storeDir: storeDir, serveErr: make(chan error, 1)}
	s.backend = service.NewDeploymentBackendOptions(d, opts)
	var backend service.Backend = s.backend
	if tr != nil {
		s.wrap = &tracedBackend{inner: s.backend, tr: tr}
		backend = s.wrap
	}
	if w.durable {
		if err := os.MkdirAll(storeDir, 0o755); err != nil {
			return nil, err
		}
		// -store-dir without -store-sync.
		archive, err := store.Open(storeDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("open measurement store: %w", err)
		}
		s.archive = archive
		s.reg = service.NewRegistryWithArchive(backend, adminKey, archive)
	} else {
		s.reg = service.NewRegistry(backend, adminKey)
	}
	s.backend.Engine.SetMetrics(core.NewMetrics(s.reg.Obs()))
	seg.SetObs(s.reg.Obs())
	d.Pool.SetObs(s.reg.Obs())
	api := service.NewAPI(s.reg)
	// A follower subscribes only after its POST returns, by which time
	// the asynchronous dispatcher has published far more than the
	// broker's default 64-event replay window; the window and the
	// subscriber ring are sized to hold a whole submission's events
	// (-stream-buffer is the server flag for the ring).
	ring := w.ring(cfg)
	s.broker = s.reg.EnableStream(stream.Options{SubBuffer: ring, Replay: ring})
	var batchCtx context.Context
	batchCtx, s.stop = context.WithCancel(context.Background())
	// The revtr-server flag defaults.
	s.sc = s.reg.EnableBatch(batchCtx, sched.Options{
		Workers:     4,
		QueueCap:    1024,
		Quantum:     4,
		MaxInFlight: 4096,
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	// No workload opens more client connections than there are CPUs.
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     runtime.NumCPU(),
		MaxIdleConnsPerHost: runtime.NumCPU(),
		DisableCompression:  true,
	}}

	for i := 0; i < w.users; i++ {
		var u struct {
			APIKey string `json:"apiKey"`
		}
		body := map[string]any{"name": fmt.Sprintf("user%d", i), "maxParallel": 64, "maxPerDay": 1 << 30}
		if _, err := s.call("POST", "/api/v1/users", "", body, &u, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
		s.users = append(s.users, u.APIKey)
	}
	tReg := time.Now()
	for i := 0; i < nSources; i++ {
		h := d.PickSourceHost(i)
		body := map[string]any{"addr": h.Addr.String()}
		if _, err := s.call("POST", "/api/v1/sources", s.users[0], body, nil, http.StatusCreated); err != nil {
			s.close()
			return nil, err
		}
		s.sources = append(s.sources, h)
	}
	s.register = time.Since(tReg)
	s.assemble = time.Since(t0)
	return s, nil
}

// call sends one JSON request and decodes the reply into out (when
// non-nil). A status other than want is an error. key is sent as the
// API key, or the admin key when empty. It returns the reply's size.
func (s *server) call(method, path, key string, body, out any, want int) (int64, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, err
	}
	if key == "" {
		req.Header.Set("X-Admin-Key", adminKey)
	} else {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("%s %s: read reply: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return int64(len(raw)), &statusError{method, path, resp.StatusCode, string(bytes.TrimSpace(raw))}
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return int64(len(raw)), fmt.Errorf("%s %s: decode reply: %w", method, path, err)
		}
	}
	return int64(len(raw)), nil
}

// statusError is a reply with an unexpected HTTP status.
type statusError struct {
	method, path string
	code         int
	body         string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: status %d: %s", e.method, e.path, e.code, e.body)
}

// isStatusError reports whether err is an unexpected-status reply (an
// operation the server refused) rather than a transport failure.
func isStatusError(err error) bool {
	var se *statusError
	return errors.As(err, &se)
}

// close shuts the server down in revtr-server's order: streams end,
// HTTP drains, the scheduler drains, the store closes.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.broker.Shutdown()
	if err := s.srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: http shutdown: %v\n", err)
	}
	if err := <-s.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve: %v\n", err)
	}
	s.stop()
	if err := s.sc.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: batch drain: %v\n", err)
	}
	s.client.CloseIdleConnections()
	if s.archive != nil {
		if err := s.archive.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: close store: %v\n", err)
		}
		if err := os.RemoveAll(s.storeDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: remove store: %v\n", err)
		}
	}
}
