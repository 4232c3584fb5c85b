package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"revtr"
	"revtr/internal/netsim/topology"
	"revtr/internal/service"
)

// pair is one (source, destination) job, in the API's string form.
type pair struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

func (p pair) key() string { return p.Src + ">" + p.Dst }

// plan is a workload's generated input: loops[i] is closed loop i's
// sequence of submissions. The interactive workload instead shares one
// queue of single pairs between its clients (queue).
type plan struct {
	queue []pair
	loops [][][]pair
}

func (p plan) jobs() int {
	n := len(p.queue)
	for _, l := range p.loops {
		for _, b := range l {
			n += len(b)
		}
	}
	return n
}

// workload is one traffic mix and the server settings it runs against.
type workload struct {
	name     string
	users    int
	segments bool // -segment-ttl set: the segment store is on
	durable  bool // -store-dir set: the archive is a WAL in a temp dir
	batch    bool // jobs go through POST /api/v1/batch
	inputs   func(cfg config, d *revtr.Deployment, sources []*topology.Host) plan
}

var workloads = map[string]workload{
	"interactive": {name: "interactive", users: 1, inputs: distinctQueue},
	"bulk":        {name: "bulk", users: 1, segments: true, durable: true, batch: true, inputs: distinctSubmissions},
	"shared":      {name: "shared", users: 2, segments: true, durable: true, batch: true, inputs: zipfBatches},
}

// ring is the broker replay window and subscriber ring for a workload:
// room for every event of one submission.
func (w workload) ring(cfg config) int {
	switch w.name {
	case "bulk":
		return 32 * cfg.BulkBatch
	case "shared":
		return 32 * sharedBatch
	}
	return 0
}

// distinctPairs is the pair universe: every registered source × one
// responsive host per announced prefix, shuffled by the seed.
func distinctPairs(cfg config, d *revtr.Deployment, sources []*topology.Host) []pair {
	var out []pair
	for _, h := range d.OnePerPrefix() {
		for _, s := range sources {
			if h.Addr != s.Addr {
				out = append(out, pair{Src: s.Addr.String(), Dst: h.Addr.String()})
			}
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if cfg.PairLimit > 0 && len(out) > cfg.PairLimit {
		out = out[:cfg.PairLimit]
	}
	return out
}

func distinctQueue(cfg config, d *revtr.Deployment, sources []*topology.Host) plan {
	return plan{queue: distinctPairs(cfg, d, sources)}
}

// distinctSubmissions splits the universe into near-equal submissions
// of at most cfg.BulkBatch pairs.
func distinctSubmissions(cfg config, d *revtr.Deployment, sources []*topology.Host) plan {
	pairs := distinctPairs(cfg, d, sources)
	n := (len(pairs) + cfg.BulkBatch - 1) / cfg.BulkBatch
	var subs [][]pair
	for i := 0; i < n; i++ {
		subs = append(subs, pairs[i*len(pairs)/n:(i+1)*len(pairs)/n])
	}
	return plan{loops: [][][]pair{subs}}
}

// The shared workload's sizes: each of the 2 users submits
// sharedBatches batches of sharedBatch pairs, drawn with Zipf exponent
// zipfS from nSources × sharedDests destinations in at most sharedASes
// ASes.
const (
	sharedBatch   = 50
	sharedBatches = 500
	sharedDests   = 200
	sharedASes    = 100
	zipfS         = 1.1
)

// zipfBatches draws each user's batches from the popular universe,
// ranked by a seeded shuffle.
func zipfBatches(cfg config, d *revtr.Deployment, sources []*topology.Host) plan {
	byAS := map[topology.ASN][]*topology.Host{}
	var ases []topology.ASN
	for _, h := range d.OnePerPrefix() {
		if byAS[h.AS] == nil {
			ases = append(ases, h.AS)
		}
		byAS[h.AS] = append(byAS[h.AS], h)
	}
	sort.Slice(ases, func(i, j int) bool { return ases[i] < ases[j] })
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x21bf))
	rng.Shuffle(len(ases), func(i, j int) { ases[i], ases[j] = ases[j], ases[i] })
	var universe []pair
	dests := 0
	for i := 0; i < len(ases) && i < sharedASes && dests < sharedDests; i++ {
		for _, h := range byAS[ases[i]] {
			if dests == sharedDests {
				break
			}
			dests++
			for _, s := range sources {
				if h.Addr != s.Addr {
					universe = append(universe, pair{Src: s.Addr.String(), Dst: h.Addr.String()})
				}
			}
		}
	}
	rng.Shuffle(len(universe), func(i, j int) { universe[i], universe[j] = universe[j], universe[i] })
	var p plan
	for u := 0; u < 2; u++ {
		urng := rand.New(rand.NewSource(cfg.Seed*31 + int64(u) + 1))
		z := rand.NewZipf(urng, zipfS, 1, uint64(len(universe)-1))
		var loop [][]pair
		for b := 0; b < sharedBatches; b++ {
			batch := make([]pair, sharedBatch)
			for i := range batch {
				batch[i] = universe[z.Uint64()]
			}
			loop = append(loop, batch)
		}
		p.loops = append(p.loops, loop)
	}
	return p
}

// jobResult is one job's reported measurement.
type jobResult struct {
	p pair
	m *service.Measurement
}

// reqRec is one interactive request, times relative to the ledger epoch.
type reqRec struct {
	p          pair
	start, end time.Duration
}

// batchRec is one followed batch submission. Per-job times are arrival
// offsets from the ledger epoch (0 = not seen).
type batchRec struct {
	loop                int
	pairs               []pair
	id                  string
	submit, posted, end time.Duration
	admit               []string // job states in the admission snapshot
	running, terminal   []time.Duration
	final               []string // terminal state per job, from events
	nTerminal           []int
	gaps, firstID       int
	endReason           string
	bytes               int64
}

// ledger is the client side's account of one timed phase.
type ledger struct {
	epoch time.Time

	mu        sync.Mutex
	jobs      int
	httpFail  int
	states    map[string]int // terminal job states
	latencyMS []float64      // per request, or per batch from submit to end
	submitMS  []float64
	bytes     int64
	results   []jobResult
	reqs      []reqRec
	batches   []*batchRec
	problems  []string
}

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), states: map[string]int{}}
}

func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 1000 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	} else {
		l.problems[len(l.problems)-1] = "(more problems suppressed)"
	}
}

func (l *ledger) since() time.Duration { return time.Since(l.epoch) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// drive runs the workload's timed phase against the server.
func drive(s *server, w workload, p plan, l *ledger) error {
	if !w.batch {
		return driveInteractive(s, p.queue, l)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(p.loops))
	for i, loop := range p.loops {
		wg.Add(1)
		go func(i int, loop [][]pair) {
			defer wg.Done()
			key := s.users[i%len(s.users)]
			for _, sub := range loop {
				if err := s.submitAndFollow(key, i, sub, l); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, loop)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// interactiveClients is the number of closed-loop interactive clients.
const interactiveClients = 2

func driveInteractive(s *server, queue []pair, l *ledger) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, interactiveClients)
	for c := 0; c < interactiveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queue) {
					return
				}
				if err := s.measureOne(queue[i], l); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measureOne is one POST /api/v1/revtr round trip for one pair.
func (s *server) measureOne(p pair, l *ledger) error {
	body := map[string]any{"src": p.Src, "dsts": []string{p.Dst}}
	var out []*service.Measurement
	start := l.since()
	n, err := s.call("POST", "/api/v1/revtr", s.users[0], body, &out, http.StatusOK)
	end := l.since()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	l.bytes += n
	if err != nil {
		if !isStatusError(err) {
			return err
		}
		l.httpFail++
		return nil
	}
	l.latencyMS = append(l.latencyMS, ms(end-start))
	if len(out) != 1 || out[0] == nil {
		l.problems = append(l.problems, fmt.Sprintf("revtr %s: %d measurements in reply, want 1", p.key(), len(out)))
		return nil
	}
	l.states["done"]++
	l.results = append(l.results, jobResult{p, out[0]})
	l.reqs = append(l.reqs, reqRec{p: p, start: start, end: end})
	return nil
}

// batchEvent is the part of a streamed event the follower reads.
type batchEvent struct {
	ID     int    `json:"id"`
	Kind   string `json:"kind"`
	Job    int    `json:"job"`
	State  string `json:"state"`
	Reason string `json:"reason"`
}

// admission is the part of the POST /api/v1/batch reply the client reads.
type admission struct {
	ID   string `json:"batchId"`
	Jobs []struct {
		State string `json:"state"`
	} `json:"jobs"`
}

// submitAndFollow submits one batch and follows its event stream to
// the end event; it never polls.
func (s *server) submitAndFollow(key string, loop int, pairs []pair, l *ledger) error {
	b := &batchRec{loop: loop, pairs: pairs}
	n := len(pairs)
	b.running = make([]time.Duration, n)
	b.terminal = make([]time.Duration, n)
	b.final = make([]string, n)
	b.nTerminal = make([]int, n)

	var adm admission
	b.submit = l.since()
	size, err := s.call("POST", "/api/v1/batch", key, map[string]any{"pairs": pairs}, &adm, http.StatusAccepted)
	b.posted = l.since()
	b.bytes += size
	if err != nil {
		if !isStatusError(err) {
			return err
		}
		l.mu.Lock()
		l.jobs += n
		l.httpFail++
		l.bytes += size
		l.mu.Unlock()
		return nil
	}
	b.id = adm.ID
	for _, j := range adm.Jobs {
		b.admit = append(b.admit, j.State)
	}
	if err := s.follow(key, b, l); err != nil {
		return err
	}
	b.end = l.since()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs += n
	l.bytes += b.bytes
	l.submitMS = append(l.submitMS, ms(b.posted-b.submit))
	l.latencyMS = append(l.latencyMS, ms(b.end-b.submit))
	for _, st := range b.final {
		if st != "" {
			l.states[st]++
		}
	}
	l.batches = append(l.batches, b)
	return nil
}

// follow reads GET /api/v1/batch/{id}/events from the first event to
// the end event, recording per-job state arrivals.
func (s *server) follow(key string, b *batchRec, l *ledger) error {
	req, err := http.NewRequest("GET", s.base+"/api/v1/batch/"+b.id+"/events", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("follow %s: %w", b.id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("follow %s: status %d", b.id, resp.StatusCode)
	}
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := rd.ReadSlice('\n')
		b.bytes += int64(len(line))
		if err != nil {
			return fmt.Errorf("follow %s: stream ended without an end event: %w", b.id, err)
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev batchEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("follow %s: bad event %q: %w", b.id, line, err)
		}
		switch ev.Kind {
		case "heartbeat":
			continue
		case "gap":
			b.gaps++
			continue
		case "end":
			b.endReason = ev.Reason
			return nil
		}
		if b.firstID == 0 {
			b.firstID = ev.ID
		}
		if ev.Kind != "state" {
			continue
		}
		if ev.Job < 0 || ev.Job >= len(b.pairs) {
			l.problem("batch %s: state event for job %d of %d", b.id, ev.Job, len(b.pairs))
			continue
		}
		now := l.since()
		switch ev.State {
		case "queued":
		case "running":
			b.running[ev.Job] = now
		case "coalesced", "done", "failed", "shed":
			b.nTerminal[ev.Job]++
			b.final[ev.Job] = ev.State
			b.terminal[ev.Job] = now
		default:
			l.problem("batch %s job %d: unknown state %q", b.id, ev.Job, ev.State)
		}
	}
}
