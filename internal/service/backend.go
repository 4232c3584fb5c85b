package service

import (
	"context"
	"fmt"
	"sync"

	"revtr"
	"revtr/internal/core"
	"revtr/internal/measure"
	"revtr/internal/netsim/ipv4"
	"revtr/internal/stream"
)

// DeploymentBackend fronts a simulated deployment: sources are hosts of
// the simulated Internet, bootstrap checks RR reachability end to end,
// and measurements run on the deployment's revtr 2.0 engine.
//
// Measure runs lock-free: the engine submits probe batches through the
// deployment's shared probe.Pool and is safe for concurrent use, so
// concurrent HTTP measurements really do probe concurrently. Bootstrap
// and atlas refresh still use the deployment's serial prober and atlas
// service, which are single-writer; mu serializes only those.
type DeploymentBackend struct {
	D      *revtr.Deployment
	Engine *core.Engine

	mu sync.Mutex // guards the serial prober + atlas service paths
}

// NewDeploymentBackend wires a deployment with a revtr 2.0 engine.
func NewDeploymentBackend(d *revtr.Deployment) *DeploymentBackend {
	return NewDeploymentBackendOptions(d, core.Revtr20Options())
}

// NewDeploymentBackendOptions wires a deployment with an engine built
// from explicit options — the server uses it to thread operator knobs
// (segment memoization, cache sizing) into the measurement engine.
func NewDeploymentBackendOptions(d *revtr.Deployment, opts core.Options) *DeploymentBackend {
	return &DeploymentBackend{D: d, Engine: d.Engine(opts)}
}

// RegisterSource implements Backend: the Appendix A bootstrap. The source
// must exist, answer pings, and be able to receive record route packets
// (checked with a probe from a vantage point); then its traceroute atlas
// and RR-alias measurements are built.
func (b *DeploymentBackend) RegisterSource(addr ipv4.Addr) (core.Source, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	h, ok := b.D.Topo.HostOf(addr)
	if !ok {
		return core.Source{}, fmt.Errorf("no host at %s", addr)
	}
	agent := measure.AgentFromHost(b.D.Topo, h)
	// RR reachability check: at least one vantage point's RR ping must
	// come back with the option intact.
	reachable := false
	for i, vp := range b.D.SiteAgents {
		if rr := b.D.Prober.RRPing(vp, addr); rr.Responded {
			reachable = true
			break
		}
		if i >= 5 {
			break
		}
	}
	if !reachable {
		return core.Source{}, fmt.Errorf("source %s cannot receive record route packets", addr)
	}
	return core.Source{Agent: agent, Atlas: b.D.AtlasSvc.BuildFor(agent)}, nil
}

// Measure implements Backend. The engine is safe for concurrent use and
// checks ctx between measurement stages, so cancelled requests abort
// in-flight work promptly.
func (b *DeploymentBackend) Measure(ctx context.Context, src core.Source, dst ipv4.Addr) *core.Result {
	return b.Engine.MeasureReverse(ctx, src, dst)
}

// MeasureAsync is MeasureAsyncStream without a sink. The registry never
// calls it; the benchmark module's traced backend delegates to it.
func (b *DeploymentBackend) MeasureAsync(ctx context.Context, src core.Source, dst ipv4.Addr, done func(*core.Result)) {
	b.Engine.MeasureAsync(ctx, src, dst, done)
}

// MeasureStream is Measure with a progress sink. The registry never
// calls it; the benchmark module's traced backend delegates to it.
func (b *DeploymentBackend) MeasureStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event)) *core.Result {
	return b.Engine.MeasureReverseStream(ctx, src, dst, sink)
}

// MeasureAsyncStream implements Backend: the engine's resumable state
// machine runs the measurement without parking a goroutine across
// spoofed-batch timeouts, and progress events flow to sink from
// whichever pool executor resumes the suspended machine.
func (b *DeploymentBackend) MeasureAsyncStream(ctx context.Context, src core.Source, dst ipv4.Addr, sink func(stream.Event), done func(*core.Result)) {
	b.Engine.MeasureAsyncStream(ctx, src, dst, sink, done)
}

// RefreshAtlas implements Backend with the deployment's atlas service.
func (b *DeploymentBackend) RefreshAtlas(src core.Source) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.D.AtlasSvc.Refresh(src.Atlas)
}
