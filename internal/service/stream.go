// Streaming glue: the service face of internal/stream. EnableStream
// attaches a broker; batch measurements then publish hop-by-hop
// progress onto per-batch topics (through the sink of
// Backend.MeasureAsyncStream), the scheduler's OnJob callback
// mirrors job lifecycle transitions onto the same topics, and every
// archived measurement — sync, batch, or NDT — lands on the server-wide
// firehose topic.
//
// Lock discipline: publishJobEvent runs under sched.mu (the scheduler
// invokes OnJob with its lock held), so it must never take r.mu — the
// broker is reached through an atomic pointer instead. The resulting
// global order gains sched.mu → stream broker locks, alongside the
// existing sched.mu → r.mu edge through TryCharge.
package service

import (
	"revtr/internal/sched"
	"revtr/internal/stream"
)

// EnableStream attaches a progress broker to the registry: batch jobs
// start streaming hop reveals onto per-batch topics and archived
// measurements onto the firehose. The broker shares the registry's
// metric registry regardless of opts.Obs. Idempotent: a second call
// returns the already-attached broker. Enable before EnableBatch so
// the first batch streams from its first event.
func (r *Registry) EnableStream(opts stream.Options) *stream.Broker {
	opts.Obs = r.obs
	b := stream.New(opts)
	if r.broker.CompareAndSwap(nil, b) {
		return b
	}
	return r.broker.Load()
}

// Broker returns the attached stream broker, or nil when streaming was
// never enabled.
func (r *Registry) Broker() *stream.Broker { return r.broker.Load() }

// publishJobEvent is the scheduler's OnJob callback: mirror one job
// lifecycle transition onto its batch topic as a "state" event, and
// close the topic with an "end" event when the whole batch turns
// terminal. It runs under sched.mu, so the broker comes from the
// atomic pointer — taking r.mu here would deadlock against the
// sched.mu → r.mu order that TryCharge establishes.
func (r *Registry) publishJobEvent(ev sched.JobEvent) {
	b := r.broker.Load()
	if b == nil {
		return
	}
	se := stream.Event{
		Kind:  stream.KindState,
		Batch: ev.Batch,
		Job:   ev.Index,
		Src:   ev.Src.String(),
		Dst:   ev.Dst.String(),
		State: ev.State.String(),
	}
	if ev.Err != nil {
		se.Err = ev.Err.Error()
	}
	topicName := stream.BatchTopic(ev.Batch)
	b.Publish(topicName, se)
	if ev.BatchDone {
		b.Publish(topicName, stream.Event{
			Kind: stream.KindEnd, Batch: ev.Batch, Job: -1, Reason: "done",
		})
		b.Finish(topicName)
	}
}

// publishMeasurement puts one archived measurement on the firehose.
func (r *Registry) publishMeasurement(m *Measurement) {
	b := r.broker.Load()
	if b == nil {
		return
	}
	b.Publish(stream.Firehose, stream.Event{
		Kind:   stream.KindMeasurement,
		Job:    -1,
		User:   m.User,
		Src:    m.Src,
		Dst:    m.Dst,
		Status: m.Status,
		Result: m,
	})
}

// progressSink tags engine progress events with their batch
// coordinates and publishes them onto the batch topic. Nil when
// streaming is not enabled, so the measurement runs silently.
func (r *Registry) progressSink(job sched.JobRef) func(stream.Event) {
	b := r.broker.Load()
	if b == nil {
		return nil
	}
	topicName := stream.BatchTopic(job.Batch)
	return func(ev stream.Event) {
		ev.Batch = job.Batch
		ev.Job = job.Index
		b.Publish(topicName, ev)
	}
}

// replayMeasurements serves firehose replay-on-connect: up to k of the
// newest archived measurements matching the (empty = wildcard)
// user/src/dst filters, oldest first. The scan walks archive IDs
// downward from the newest, bounded by k matches and the archive's
// retention base.
func (r *Registry) replayMeasurements(k int, user, src, dst string) []*Measurement {
	if k <= 0 {
		return nil
	}
	var out []*Measurement
	base := r.archive.Base()
	for id := r.archive.NextID(); id > base && len(out) < k; id-- {
		var m Measurement
		ok, err := r.archive.Get(id-1, &m)
		if err != nil || !ok {
			continue
		}
		if user != "" && m.User != user {
			continue
		}
		if src != "" && m.Src != src {
			continue
		}
		if dst != "" && m.Dst != dst {
			continue
		}
		mm := m
		out = append(out, &mm)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// isAdmin checks the admin key. adminKey is immutable after
// construction, so no lock is needed.
func (r *Registry) isAdmin(key string) bool { return key != "" && key == r.adminKey }
