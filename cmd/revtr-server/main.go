// Command revtr-server runs the open Reverse Traceroute service
// (Appendix A) over a freshly generated simulated Internet: it builds the
// deployment (topology, vantage points, ingress survey), then serves the
// REST API from a hardened http.Server (connection timeouts, graceful
// shutdown on SIGINT/SIGTERM) with observability built in:
//
//	GET /metrics   engine + service counters, gauges, latency histograms
//	GET /healthz   plain-text liveness probe
//
// The batch scheduler (POST /api/v1/batch) is always on; -batch-inflight,
// -batch-queue-cap, -batch-quantum, and -max-batch-pairs (per-request
// submission size cap) tune it. With -store-dir the
// measurement archive is durable: a restarted server replays its WAL and
// snapshot and serves the identical pre-crash measurement set under the
// same IDs.
//
//	revtr-server -listen :8080 -ases 1000 -admin-key secret -store-dir /var/lib/revtr
//
// Interact with it using revtr-client or plain curl:
//
//	curl -XPOST -H 'X-Admin-Key: secret' localhost:8080/api/v1/users \
//	     -d '{"name":"alice"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/core/segments"
	"revtr/internal/netsim/faults"
	"revtr/internal/probe"
	"revtr/internal/sched"
	"revtr/internal/service"
	"revtr/internal/store"
	"revtr/internal/stream"
)

// buildFaultPlan assembles the fault plan from the -faults spec string
// overlaid with the individual -fault-* flags. Returns nil when nothing
// is enabled.
func buildFaultPlan(spec string, loss, icmpFrac, icmpPass, flap float64, fseed uint64) (*faults.Plan, error) {
	plan, err := faults.Parse(spec)
	if err != nil {
		return nil, err
	}
	if loss > 0 {
		plan.LinkLoss = loss
	}
	if icmpFrac > 0 {
		plan.ICMPFrac = icmpFrac
	}
	if icmpPass > 0 {
		plan.ICMPPass = icmpPass
	}
	if flap > 0 {
		plan.FlapFrac = flap
	}
	if fseed != 0 {
		plan.Seed = fseed
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

func main() {
	var (
		listen        = flag.String("listen", ":8080", "listen address")
		ases          = flag.Int("ases", 1000, "ASes in the simulated Internet")
		seed          = flag.Int64("seed", 1, "simulation seed")
		adminKey      = flag.String("admin-key", "admin", "admin API key for user management")
		sites         = flag.Int("sites", 30, "vantage point sites")
		probeWorkers  = flag.Int("probe-workers", 0, "concurrent probes in the shared probe pool (0 = GOMAXPROCS)")
		measureTO     = flag.Duration("measure-timeout", 0, "per-measurement wall-clock cap when a request sets no timeoutMs (0 = none)")
		faultSpec     = flag.String("faults", "", "fault plan spec, e.g. loss=0.01,icmp-frac=0.3,icmp-pass=0.5 (see internal/netsim/faults)")
		faultLoss     = flag.Float64("fault-loss", 0, "per-link packet loss probability (overrides -faults)")
		faultICMPFr   = flag.Float64("fault-icmp-frac", 0, "fraction of routers that ICMP-rate-limit (overrides -faults)")
		faultICMPOK   = flag.Float64("fault-icmp-pass", 0, "steady-state pass probability at rate-limiting routers (overrides -faults)")
		faultFlap     = flag.Float64("fault-flap", 0, "fraction of links mid route-flap per period (overrides -faults)")
		faultVPOut    = flag.Int("fault-vp-outages", 0, "blackout this many spoof-capable vantage point sites from t=0")
		faultSeed     = flag.Uint64("fault-seed", 0, "fault plan seed (overrides -faults; 0 = keep)")
		segmentTTL    = flag.Duration("segment-ttl", 0, "memoize reverse-path segments across measurements for this long in virtual time (0 = off)")
		segmentMax    = flag.Int("segment-max", 0, "max memoized segments when -segment-ttl is set (0 = default 262144)")
		retries       = flag.Int("probe-retries", 0, "re-issue unanswered probes up to this many times (virtual-time backoff)")
		retryBackoff  = flag.Duration("probe-retry-backoff", 0, "delay before the first probe retry, doubling per retry (0 = default 50ms)")
		storeDir      = flag.String("store-dir", "", "durable measurement store directory (empty = memory-only; measurements vanish on restart)")
		storeSync     = flag.Bool("store-sync", false, "fsync the measurement WAL after every append")
		storeWALMax   = flag.Int64("store-max-wal-bytes", 0, "compact (snapshot + truncate) when the WAL exceeds this (0 = default 4 MiB)")
		storeRecMax   = flag.Int("store-max-records", 0, "cap the live measurement set, dropping oldest (0 = unbounded)")
		batchInFlight = flag.Int("batch-inflight", 4096, "max concurrently in-flight async batch measurements")
		batchQueue    = flag.Int("batch-queue-cap", 1024, "batch dispatch queue cap; submissions past it are load-shed")
		batchQuantum  = flag.Int("batch-quantum", 4, "deficit round-robin quantum: jobs served per user per ring visit")
		batchPairs    = flag.Int("max-batch-pairs", 0, "max pairs per POST /api/v1/batch request, 400 past it (0 = default 10000)")
		streamBuffer  = flag.Int("stream-buffer", 0, "per-subscriber event ring on /events and /firehose; a slow subscriber past it drops oldest and gaps (0 = default 256)")
		firehoseRepl  = flag.Int("firehose-replay", 0, "max archived measurements GET /api/v1/firehose?replay= serves before going live (0 = default 64)")
		heartbeat     = flag.Duration("stream-heartbeat", 0, "keep-alive interval on idle event streams (0 = default 15s)")
		readTimeout   = flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
		writeTimeout  = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout (bulk measurements take a while)")
		drainTimeout  = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown deadline after SIGINT/SIGTERM")
	)
	flag.Parse()

	log.Printf("building simulated Internet (%d ASes, %d sites)...", *ases, *sites)
	cfg := revtr.DefaultConfig(*ases)
	cfg.Seed = *seed
	cfg.Topology.Seed = *seed
	cfg.Sites = *sites
	cfg.ProbeWorkers = *probeWorkers
	d := revtr.Build(cfg)
	log.Printf("topology: %s", d.Topo.Stats())
	log.Printf("background probes consumed: %d", d.BackgroundProbes.Total())

	// Fault injection attaches after Build, so the atlas and ingress
	// survey are measured on a healthy network and only live measurements
	// contend with the injected faults.
	plan, err := buildFaultPlan(*faultSpec, *faultLoss, *faultICMPFr, *faultICMPOK, *faultFlap, *faultSeed)
	if err != nil {
		log.Fatalf("fault plan: %v", err)
	}
	if *faultVPOut > 0 {
		n := 0
		for i := len(d.SiteAgents) - 1; i >= 0 && n < *faultVPOut; i-- {
			if d.SiteAgents[i].CanSpoof {
				plan.AddBlackout(d.SiteAgents[i].Addr, 0, 0)
				n++
			}
		}
		log.Printf("fault plan: %d vantage point sites blacked out", n)
	}
	if plan.Enabled() {
		d.Fabric.SetFaults(plan)
		log.Printf("fault plan active: %s", plan)
	}
	if *retries > 0 {
		d.Pool.SetRetry(probe.RetryPolicy{Max: *retries, BackoffUS: retryBackoff.Microseconds()})
	}

	engineOpts := core.Revtr20Options()
	var segStore *segments.Store
	if *segmentTTL > 0 {
		segStore = segments.New(segments.Options{
			TTLUS:      segmentTTL.Microseconds(),
			MaxEntries: *segmentMax,
		})
		engineOpts.SegmentStore = segStore
		eff := *segmentMax
		if eff <= 0 {
			eff = segments.DefaultMaxEntries
		}
		log.Printf("segment memoization: ttl %s, max %d segments", *segmentTTL, eff)
	}
	backend := service.NewDeploymentBackendOptions(d, engineOpts)
	var reg *service.Registry
	if *storeDir != "" {
		archive, err := store.Open(*storeDir, store.Options{
			Sync:        *storeSync,
			MaxWALBytes: *storeWALMax,
			MaxRecords:  *storeRecMax,
		})
		if err != nil {
			log.Fatalf("measurement store: %v", err)
		}
		defer archive.Close()
		if n := archive.Len(); n > 0 {
			log.Printf("measurement store: recovered %d measurements from %s (next id %d)",
				n, *storeDir, archive.NextID())
		}
		reg = service.NewRegistryWithArchive(backend, *adminKey, archive)
	} else {
		reg = service.NewRegistry(backend, *adminKey)
	}
	// Engine metrics land in the same registry the service renders on
	// GET /metrics, so per-stage engine accounting is live from request 1.
	backend.Engine.SetMetrics(core.NewMetrics(reg.Obs()))
	segStore.SetObs(reg.Obs())
	// Pool metrics (in-flight probes, batch sizes/latencies) land next to
	// the engine's on GET /metrics, as do fault-injection tallies.
	d.Pool.SetObs(reg.Obs())
	plan.SetObs(reg.Obs())
	api := service.NewAPI(reg)
	api.MeasureTimeout = *measureTO
	api.MaxBatchPairs = *batchPairs
	api.HeartbeatInterval = *heartbeat
	api.FirehoseReplay = *firehoseRepl

	// Streaming before EnableBatch: the first batch job's first event
	// already has a broker to land on.
	broker := reg.EnableStream(stream.Options{SubBuffer: *streamBuffer})
	effRing := *streamBuffer
	if effRing <= 0 {
		effRing = 256
	}
	log.Printf("streaming: /api/v1/batch/{id}/events + /api/v1/firehose (subscriber ring %d)", effRing)

	// The batch scheduler's dispatcher lives until the shutdown context
	// fires; Drain below waits for the last in-flight measurements.
	batchCtx, stopBatch := context.WithCancel(context.Background())
	defer stopBatch()
	sc := reg.EnableBatch(batchCtx, sched.Options{
		QueueCap:    *batchQueue,
		Quantum:     *batchQuantum,
		MaxInFlight: *batchInFlight,
	})
	log.Printf("batch scheduler: up to %d in flight, queue cap %d, quantum %d",
		*batchInFlight, *batchQueue, *batchQuantum)

	// Print a few example destination addresses so users can try the API
	// without reading the topology dump.
	hosts := d.OnePerPrefix()
	n := 5
	if len(hosts) < n {
		n = len(hosts)
	}
	for i := 0; i < n; i++ {
		fmt.Printf("example destination %d: %s (AS%d)\n", i, hosts[i].Addr, hosts[i].AS)
	}
	fmt.Printf("example source host:   %s\n", d.PickSourceHost(0).Addr)

	srv := &http.Server{
		Addr:              *listen,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s (metrics on /metrics, liveness on /healthz)", *listen)

	select {
	case err := <-errc:
		log.Fatalf("server: %v", err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second signal kills immediately
		log.Printf("signal received, draining connections (max %s)...", *drainTimeout)
		shCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// End every event stream before srv.Shutdown: streaming handlers
		// hold their connections open until their subscription terminates,
		// and Shutdown waits for active connections.
		broker.Shutdown()
		if err := srv.Shutdown(shCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("server: %v", err)
		}
		stopBatch()
		if err := sc.Drain(shCtx); err != nil {
			log.Printf("batch drain: %v", err)
		}
		st := reg.Stats()
		log.Printf("drained: %d users, %d sources, %d measurements archived",
			st.Users, st.Sources, st.Measurements)
	}
}
