// May-held lock and ticket dataflow over the CFG. For one function the
// analysis computes, at every mutex acquisition and every call site, the
// set of locks (sync.Mutex / sync.RWMutex) and tickets (sends into a
// `chan struct{}` semaphore) that may already be held. Downstream,
// lockorder turns acquisition facts into order-graph edges and
// suspendsafe checks call facts against suspension points.
//
// Approximations, all deliberate and all on the conservative side for
// the analyzers that consume the facts:
//
//   - Deferred unlocks do not release: a defer fires at return, so the
//     lock really is held at every statement in between.
//   - Function-literal bodies are opaque for lock/unlock events: a
//     callback's unlock (the async engine's done-callback pattern) runs
//     at some later time on some other goroutine, not at the call site
//     that registers it. Deferred closures contribute their call events
//     (they run on this goroutine, with the locks held at return), but
//     not their unlocks.
//   - TryLock/TryRLock used as an if condition is modelled edge-
//     sensitively: the lock is held only on the branch where the call
//     returned true. Any other TryLock shape is untracked.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/loader"
)

// Held is one lock or ticket that may be held at a program point.
type Held struct {
	// Key canonically identifies the lock across functions and packages:
	// "pkgpath.Type.field" for struct-field mutexes, "pkgpath.var" for
	// package-level ones, with a "ticket " prefix for channel semaphores.
	Key string
	// Render is the source-level spelling for messages (e.g. "s.mu").
	Render string
	// Read marks a read-side (RLock) hold.
	Read bool
	// Ticket marks a channel-semaphore slot rather than a mutex.
	Ticket bool
	// Pos is the acquisition site the fact flowed from.
	Pos token.Pos
}

// Acquire is one lock/ticket acquisition site with the set already held.
type Acquire struct {
	Held
	// Holding is what may already be held when this acquisition runs,
	// sorted by key.
	Holding []Held
}

// CallSite is one resolved (or declared) call with the held set.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
	// Holding is what may be held when the call runs, sorted by key.
	Holding []Held
}

// LockFacts is the dataflow result for one function.
type LockFacts struct {
	Acquires []Acquire
	Calls    []CallSite
}

// LockFacts runs (memoized) the may-held dataflow for fn.
func (p *Program) LockFacts(fn *types.Func) *LockFacts {
	if f, ok := p.facts[fn]; ok {
		return f
	}
	fi := p.Funcs[fn]
	if fi == nil {
		p.facts[fn] = nil
		return nil
	}
	f := computeLockFacts(p, fi)
	p.facts[fn] = f
	return f
}

type evKind int

const (
	evLock evKind = iota
	evUnlock
	evCall
)

type event struct {
	kind   evKind
	held   Held        // evLock/evUnlock
	callee *types.Func // evCall
	pos    token.Pos
}

// condAcq describes a TryLock-shaped branch condition.
type condAcq struct {
	held    Held
	negated bool // `if !mu.TryLock()`: held on the FALSE edge
}

func computeLockFacts(p *Program, fi *FuncInfo) *LockFacts {
	cfg := BuildCFG(fi.Decl.Body)
	x := &extractor{pkg: fi.Pkg, prog: p}

	events := make([][]event, len(cfg.Blocks))
	conds := make([]*condAcq, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			events[i] = x.stmtEvents(events[i], s)
		}
		if b.Cond != nil {
			events[i] = x.exprEvents(events[i], b.Cond, true)
			conds[i] = x.condTry(b.Cond)
		}
	}

	// Forward may-held fixpoint: join is union, transfer is the block's
	// event sequence, TryLock conditions adjust per-edge.
	type heldSet = map[string]Held
	apply := func(in heldSet, evs []event) heldSet {
		out := make(heldSet, len(in))
		for k, v := range in {
			out[k] = v
		}
		for _, e := range evs {
			switch e.kind {
			case evLock:
				if _, ok := out[e.held.Key]; !ok {
					out[e.held.Key] = e.held
				}
			case evUnlock:
				delete(out, e.held.Key)
			}
		}
		return out
	}
	ins := make([]heldSet, len(cfg.Blocks))
	ins[cfg.Entry.index] = heldSet{}
	work := []int{cfg.Entry.index}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		b := cfg.Blocks[bi]
		out := apply(ins[bi], events[bi])
		for si, succ := range b.Succs {
			eo := out
			if c := conds[bi]; c != nil && b.Cond != nil {
				onTrue := si == 0
				if onTrue != c.negated {
					eo = apply(out, []event{{kind: evLock, held: c.held}})
				}
			}
			if ins[succ.index] == nil {
				ins[succ.index] = apply(eo, nil)
				work = append(work, succ.index)
				continue
			}
			grew := false
			for k, v := range eo {
				if _, ok := ins[succ.index][k]; !ok {
					ins[succ.index][k] = v
					grew = true
				}
			}
			if grew {
				work = append(work, succ.index)
			}
		}
	}

	// Recording pass: replay each reachable block once with its final
	// in-set, snapshotting held sets at acquisitions and calls.
	facts := &LockFacts{}
	snapshot := func(s heldSet) []Held {
		out := make([]Held, 0, len(s))
		for _, h := range s {
			out = append(out, h)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		return out
	}
	for bi := range cfg.Blocks {
		if ins[bi] == nil {
			continue // unreachable
		}
		state := apply(ins[bi], nil)
		for _, e := range events[bi] {
			switch e.kind {
			case evLock:
				facts.Acquires = append(facts.Acquires, Acquire{Held: e.held, Holding: snapshot(state)})
				if _, ok := state[e.held.Key]; !ok {
					state[e.held.Key] = e.held
				}
			case evUnlock:
				delete(state, e.held.Key)
			case evCall:
				facts.Calls = append(facts.Calls, CallSite{Callee: e.callee, Pos: e.pos, Holding: snapshot(state)})
			}
		}
		if c := conds[bi]; c != nil {
			facts.Acquires = append(facts.Acquires, Acquire{Held: c.held, Holding: snapshot(state)})
		}
	}
	sort.Slice(facts.Acquires, func(i, j int) bool { return facts.Acquires[i].Pos < facts.Acquires[j].Pos })
	sort.Slice(facts.Calls, func(i, j int) bool { return facts.Calls[i].Pos < facts.Calls[j].Pos })
	return facts
}

// extractor turns statements into ordered lock/unlock/call events.
type extractor struct {
	pkg  *loader.Package
	prog *Program
}

func (x *extractor) stmtEvents(evs []event, s ast.Stmt) []event {
	switch s := s.(type) {
	case *ast.RangeStmt:
		// Only the range expression evaluates at the loop head; the body
		// has its own blocks.
		return x.exprEvents(evs, s.X, true)
	case *ast.DeferStmt:
		return x.deferEvents(evs, s)
	case *ast.GoStmt:
		return evs // runs on another goroutine
	default:
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			evs = x.nodeEvents(evs, n)
			_, isLit := n.(*ast.FuncLit)
			_, isGo := n.(*ast.GoStmt)
			return !isLit && !isGo
		}
		ast.Inspect(s, walk)
		return evs
	}
}

// exprEvents extracts events from one expression subtree.
func (x *extractor) exprEvents(evs []event, e ast.Expr, descend bool) []event {
	ast.Inspect(e, func(n ast.Node) bool {
		evs = x.nodeEvents(evs, n)
		_, isLit := n.(*ast.FuncLit)
		return descend && !isLit
	})
	return evs
}

// deferEvents handles `defer f(...)`: a deferred unlock is NOT a release
// (it fires at return); a deferred closure contributes only its calls.
func (x *extractor) deferEvents(evs []event, s *ast.DeferStmt) []event {
	if _, _, ok := x.mutexMethod(s.Call); ok {
		return evs // a deferred Unlock releases at return, not here
	}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if _, _, isMu := x.mutexMethod(call); !isMu {
					if callee := analysis.CalleeFunc(x.pkg.Info, call); callee != nil {
						evs = append(evs, event{kind: evCall, callee: x.canon(callee), pos: call.Pos()})
					}
				}
			}
			_, isLit := n.(*ast.FuncLit)
			_, isGo := n.(*ast.GoStmt)
			return !isLit && !isGo
		})
		return evs
	}
	// Deferred named call: runs at return; approximate at the defer site.
	if callee := analysis.CalleeFunc(x.pkg.Info, s.Call); callee != nil {
		evs = append(evs, event{kind: evCall, callee: x.canon(callee), pos: s.Call.Pos()})
	}
	return evs
}

// nodeEvents appends the events n itself produces.
func (x *extractor) nodeEvents(evs []event, n ast.Node) []event {
	switch n := n.(type) {
	case *ast.CallExpr:
		if h, name, ok := x.mutexMethod(n); ok {
			switch name {
			case "Lock", "RLock":
				evs = append(evs, event{kind: evLock, held: h})
			case "Unlock", "RUnlock":
				evs = append(evs, event{kind: evUnlock, held: h})
			}
			// TryLock/TryRLock outside an if condition is untracked.
			return evs
		}
		if callee := analysis.CalleeFunc(x.pkg.Info, n); callee != nil {
			evs = append(evs, event{kind: evCall, callee: x.canon(callee), pos: n.Pos()})
		}
		for _, callee := range x.declared(n) {
			evs = append(evs, event{kind: evCall, callee: callee, pos: n.Pos()})
		}
	case *ast.SendStmt:
		if h, ok := x.ticketRef(n.Chan); ok && isEmptyStructLit(n.Value) {
			h.Pos = n.Pos()
			evs = append(evs, event{kind: evLock, held: h})
		}
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			if h, ok := x.ticketRef(n.X); ok {
				evs = append(evs, event{kind: evUnlock, held: h})
			}
		}
	}
	return evs
}

// declared resolves the //revtr:calls directives attached to a call.
func (x *extractor) declared(call *ast.CallExpr) []*types.Func {
	if x.prog == nil {
		return nil
	}
	return x.prog.DeclaredCallees(call.Pos())
}

// canon maps an imported callee object back to its source-checked
// counterpart (see Program.Canon); identity must line up or cross-
// package facts never join.
func (x *extractor) canon(fn *types.Func) *types.Func {
	if x.prog == nil {
		return fn
	}
	return x.prog.Canon(fn)
}

// condTry recognizes `mu.TryLock()` / `!mu.TryLock()` branch conditions.
func (x *extractor) condTry(cond ast.Expr) *condAcq {
	negated := false
	e := ast.Unparen(cond)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		negated = true
		e = ast.Unparen(u.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil
	}
	h, name, ok := x.mutexMethod(call)
	if !ok || (name != "TryLock" && name != "TryRLock") {
		return nil
	}
	h.Read = name == "TryRLock"
	return &condAcq{held: h, negated: negated}
}

// mutexMethod resolves a sync.Mutex/sync.RWMutex method call into a Held
// fact plus the method name.
func (x *extractor) mutexMethod(call *ast.CallExpr) (Held, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return Held{}, "", false
	}
	fn := analysis.CalleeFunc(x.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return Held{}, "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
	default:
		return Held{}, "", false
	}
	key, render := x.lockRef(sel.X)
	return Held{
		Key:    key,
		Render: render,
		Read:   fn.Name() == "RLock" || fn.Name() == "RUnlock" || fn.Name() == "TryRLock",
		Pos:    call.Pos(),
	}, fn.Name(), true
}

// lockRef canonicalizes the lock expression: struct-field mutexes are
// identified by owner type + field ("pkg.Type.mu"), package-level ones
// by package path + name, and anything else falls back to the package-
// qualified source spelling. Lock and RLock of the same mutex share one
// key: the order graph has one node per lock, whatever the mode.
func (x *extractor) lockRef(e ast.Expr) (key, render string) {
	e = ast.Unparen(e)
	render = types.ExprString(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		t := x.pkg.Info.TypeOf(sel.X)
		if t != nil {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.String() + "." + sel.Sel.Name, render
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := x.pkg.Info.ObjectOf(id); obj != nil && obj.Pkg() != nil {
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name(), render
			}
			// Local mutex: qualify by declaration site so distinct locals
			// in different functions never alias.
			pos := x.pkg.Fset.Position(obj.Pos())
			return obj.Pkg().Path() + "." + obj.Name() + "@" + pos.Filename + ":" + strconv.Itoa(pos.Line), render
		}
	}
	return x.pkg.PkgPath + ":" + render, render
}

// ticketRef canonicalizes a `chan struct{}` semaphore expression.
func (x *extractor) ticketRef(ch ast.Expr) (Held, bool) {
	t := x.pkg.Info.TypeOf(ch)
	if t == nil {
		return Held{}, false
	}
	c, ok := t.Underlying().(*types.Chan)
	if !ok {
		return Held{}, false
	}
	st, ok := c.Elem().Underlying().(*types.Struct)
	if !ok || st.NumFields() != 0 {
		return Held{}, false
	}
	key, render := x.lockRef(ch)
	return Held{Key: "ticket " + key, Render: render, Ticket: true, Pos: ch.Pos()}, true
}

func isEmptyStructLit(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return false
	}
	return len(lit.Elts) == 0
}
