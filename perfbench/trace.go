package main

import (
	"context"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"revtr/internal/core"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/service"
	"revtr/internal/stream"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// from the tracer's epoch; spans of one job share Job.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer holds spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	calls   map[string]int // backend entry point → calls
	sources map[ipv4.Addr]core.Source
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), calls: map[string]int{}, sources: map[ipv4.Addr]core.Source{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records one span and returns its ID.
func (t *tracer) add(name, job string, parent, start, end int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: start, End: end})
	return id
}

// backendCall records one service→core span for entry point name.
func (t *tracer) backendCall(name string, src core.Source, dst ipv4.Addr, start int64) {
	end := t.now()
	t.mu.Lock()
	t.calls[name]++
	t.mu.Unlock()
	t.add("core."+name, src.Agent.Addr.String()+">"+dst.String(), 0, start, end)
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tracedBackend wraps the deployment backend in service→core spans. It
// implements all four backend interfaces by delegation, so the registry
// takes the same dispatch path (async streaming for batch jobs,
// blocking for POST /api/v1/revtr) as with the bare backend.
type tracedBackend struct {
	inner *service.DeploymentBackend
	tr    *tracer
}

var (
	_ service.Backend            = (*tracedBackend)(nil)
	_ service.AsyncBackend       = (*tracedBackend)(nil)
	_ service.StreamBackend      = (*tracedBackend)(nil)
	_ service.StreamAsyncBackend = (*tracedBackend)(nil)
)

func (b *tracedBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	start := b.tr.now()
	src, err := b.inner.RegisterSource(addr)
	b.tr.add("core.register_source", addr.String(), 0, start, b.tr.now())
	if err == nil {
		b.tr.mu.Lock()
		b.tr.sources[addr] = src
		b.tr.mu.Unlock()
	}
	return src, err
}

func (b *tracedBackend) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	start := b.tr.now()
	res := b.inner.Measure(ctx, src, dst)
	b.tr.backendCall("measure", src, dst, start)
	return res
}

func (b *tracedBackend) MeasureAsync(ctx context.Context, src core.Source, dst ipv4.Addr, done func(*core.Result)) {
	start := b.tr.now()
	b.inner.MeasureAsync(ctx, src, dst, func(res *core.Result) {
		b.tr.backendCall("measure_async", src, dst, start)
		done(res)
	})
}

func (b *tracedBackend) MeasureStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event)) *core.Result {
	start := b.tr.now()
	res := b.inner.MeasureStream(ctx, src, dst, sink)
	b.tr.backendCall("measure_stream", src, dst, start)
	return res
}

func (b *tracedBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event), done func(*core.Result)) {
	start := b.tr.now()
	b.inner.MeasureAsyncStream(ctx, src, dst, sink, func(res *core.Result) {
		b.tr.backendCall("measure_async_stream", src, dst, start)
		done(res)
	})
}

func (b *tracedBackend) RefreshAtlas(src core.Source) { b.inner.RefreshAtlas(src) }

// clientSpans turns the ledger's records into client, sched and
// service spans, and parents each backend span on the span of the job
// that drove it (the request, or the sched run span of the leader).
func (t *tracer) clientSpans(l *ledger) {
	off := int64(l.epoch.Sub(t.epoch))
	parentOf := map[string]int64{}
	for _, r := range l.reqs {
		id := t.add("client.revtr", r.p.key(), 0, off+int64(r.start), off+int64(r.end))
		parentOf[r.p.key()] = id
	}
	for _, b := range l.batches {
		bid := t.add("client.batch", b.id, 0, off+int64(b.submit), off+int64(b.end))
		t.add("service.submit", b.id, bid, off+int64(b.submit), off+int64(b.posted))
		for j, p := range b.pairs {
			if b.running[j] == 0 || b.terminal[j] == 0 {
				continue
			}
			job := b.id + "/" + strconv.Itoa(j)
			t.add("sched.queue", job, bid, off+int64(b.submit), off+int64(b.running[j]))
			rid := t.add("sched.run", job, bid, off+int64(b.running[j]), off+int64(b.terminal[j]))
			if _, ok := parentOf[p.key()]; !ok {
				parentOf[p.key()] = rid
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent == 0 && strings.HasPrefix(s.Name, "core.") {
			s.Parent = parentOf[s.Job]
		}
	}
}

// backendSpans returns the service→core measurement spans by job key
// (the first span per key).
func (t *tracer) backendSpans() map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]span{}
	for _, s := range t.spans {
		if s.Name == "core.register_source" || !strings.HasPrefix(s.Name, "core.") {
			continue
		}
		if _, ok := out[s.Job]; !ok {
			out[s.Job] = s
		}
	}
	return out
}
