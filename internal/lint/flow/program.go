// Package flow is the flow-aware layer of the lint suite: a module-wide
// view of every loaded package (Program), a statement-level
// intraprocedural CFG (BuildCFG), a module-local call graph, and a
// may-held lock/ticket dataflow (LockFacts). The concurrency analyzers
// (lockorder, suspendsafe, spawnbound) consume it; the per-package
// analyzers in internal/lint/analysis do not need it.
//
// Two //revtr: directives make the static graphs match the dynamic
// ones:
//
//   - //revtr:calls pkgpath.Func (or pkgpath.Type.Method) on a call line
//     declares the target of an indirect call — a function-typed field
//     or interface the resolver cannot see through. The sched layer uses
//     it to declare that s.opts.TryCharge lands in the service registry,
//     which is exactly the cross-package edge the lock-order graph must
//     know about.
//   - //revtr:suspends <why> on a function or interface-method
//     declaration marks it as a suspension point: calling it may park
//     the measurement (probe pool async submission, the engine's
//     resumable machine). suspendsafe propagates the mark up the call
//     graph.
//
// The call graph is goroutine-local by construction: `go` statement
// subtrees are excluded, because work launched on another goroutine
// neither holds the caller's locks nor suspends the caller. Non-go
// function literals (deferred closures, inline callbacks) are included
// conservatively.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"revtr/internal/lint/analysis"
	"revtr/internal/lint/directive"
	"revtr/internal/lint/loader"
)

// FuncInfo is one module function with a body.
type FuncInfo struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *loader.Package
}

// Program is the module-wide analysis context: every loaded package,
// indexed functions, parsed directives, and memoized per-function facts.
type Program struct {
	Fset *token.FileSet
	Pkgs []*loader.Package
	// Funcs indexes every function declared with a body in the loaded
	// packages.
	Funcs map[*types.Func]*FuncInfo

	dirs   []pkgDirs
	byName map[string]*types.Func
	calls  map[*types.Func][]*types.Func
	facts  map[*types.Func]*LockFacts
}

type pkgDirs struct {
	pkg *loader.Package
	m   *directive.Map
}

// BuildProgram assembles the module view from one loader.Load result.
// All packages must share one FileSet (loader.Load guarantees this for
// a single call).
func BuildProgram(pkgs []*loader.Package) *Program {
	p := &Program{
		Funcs:  map[*types.Func]*FuncInfo{},
		byName: map[string]*types.Func{},
		calls:  map[*types.Func][]*types.Func{},
		facts:  map[*types.Func]*LockFacts{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	p.Pkgs = pkgs
	for _, pkg := range pkgs {
		p.dirs = append(p.dirs, pkgDirs{pkg, directive.Parse(pkg.Fset, pkg.Files)})
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.Funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
				if key := FuncKey(fn); key != "" && p.byName[key] == nil {
					p.byName[key] = fn
				}
			}
			// Index interface methods too: a cross-package call resolves
			// to the importer's object, and Canon must be able to map it
			// back to the source-checked one //revtr:suspends seeds use.
			ast.Inspect(f, func(n ast.Node) bool {
				it, ok := n.(*ast.InterfaceType)
				if !ok {
					return true
				}
				for _, field := range it.Methods.List {
					for _, name := range field.Names {
						if fn, ok := pkg.Info.Defs[name].(*types.Func); ok {
							if key := FuncKey(fn); key != "" && p.byName[key] == nil {
								p.byName[key] = fn
							}
						}
					}
				}
				return true
			})
		}
	}
	return p
}

// Canon maps fn to the source-checked object for the same function, if
// the declaring package is loaded. The type checker materializes a
// DISTINCT *types.Func for an imported function (built from export
// data), so cross-package call facts would never match the Funcs index
// without this.
func (p *Program) Canon(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	if p.Funcs[fn] != nil {
		return fn
	}
	if canon := p.byName[FuncKey(fn)]; canon != nil {
		return canon
	}
	return fn
}

// FuncKey renders fn as the //revtr:calls target grammar:
// pkgpath.Func for package functions, pkgpath.Type.Method for methods
// (pointer receivers are spelled like value receivers). Empty for
// functions outside any package.
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// SortedFuncs returns every indexed function in source-position order,
// so analyzers iterating the module produce deterministic output.
func (p *Program) SortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(p.Funcs))
	for _, fi := range p.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := p.Fset.Position(out[i].Decl.Pos()), p.Fset.Position(out[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// Allows reports whether any package's directives suppress kind at pos.
func (p *Program) Allows(pos token.Pos, kind string) bool {
	for _, d := range p.dirs {
		if d.m.Allows(p.Fset, pos, kind) {
			return true
		}
	}
	return false
}

// directivesAt collects directives of the given kind attached to pos
// across all packages (a position lives in exactly one file, so at most
// one package contributes).
func (p *Program) directivesAt(pos token.Pos, kind string) []directive.Directive {
	for _, d := range p.dirs {
		if ds := d.m.At(p.Fset, pos, kind); len(ds) > 0 {
			return ds
		}
	}
	return nil
}

// DeclaredCallees resolves the //revtr:calls directives attached to a
// call at pos. Targets that do not resolve in the loaded package set are
// dropped (partial loads — linting one package — must not fail on
// declarations about packages that are not in view); DanglingCalls
// reports the ones whose package is in view.
func (p *Program) DeclaredCallees(pos token.Pos) []*types.Func {
	var out []*types.Func
	for _, d := range p.directivesAt(pos, directive.Calls) {
		if fn := p.byName[d.Justification]; fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

// DanglingCalls reports each //revtr:calls target whose package is
// loaded but declares no such function or method, at the outermost call
// the directive annotates. DeclaredCallees drops such a target, so a
// renamed callee would silently cut the edge lockorder and suspendsafe
// rely on. Targets outside the loaded packages are not reported.
func (p *Program) DanglingCalls(report func(call token.Pos, target string)) {
	loaded := func(target string) bool {
		for _, pkg := range p.Pkgs {
			if rest, ok := strings.CutPrefix(target, pkg.PkgPath+"."); ok && !strings.Contains(rest, "/") {
				return true
			}
		}
		return false
	}
	seen := map[token.Pos]bool{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					for _, d := range p.directivesAt(call.Pos(), directive.Calls) {
						if !seen[d.Pos] && d.Justification != "" && p.byName[d.Justification] == nil && loaded(d.Justification) {
							seen[d.Pos] = true
							report(call.Pos(), d.Justification)
						}
					}
				}
				return true
			})
		}
	}
}

// Callees returns fn's module-local, goroutine-local callees in first-
// call order: static calls resolved by the type checker plus targets
// declared with //revtr:calls. `go` statement subtrees are excluded;
// non-go function literals are included. Results are memoized.
func (p *Program) Callees(fn *types.Func) []*types.Func {
	if out, ok := p.calls[fn]; ok {
		return out
	}
	fi := p.Funcs[fn]
	if fi == nil {
		p.calls[fn] = nil
		return nil
	}
	var out []*types.Func
	seen := map[*types.Func]bool{}
	add := func(callee *types.Func) {
		if callee == nil || seen[callee] {
			return
		}
		seen[callee] = true
		out = append(out, callee)
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if callee := analysis.CalleeFunc(fi.Pkg.Info, n); callee != nil {
				add(p.Canon(callee))
			}
			for _, callee := range p.DeclaredCallees(n.Pos()) {
				add(callee)
			}
		}
		return true
	})
	p.calls[fn] = out
	return out
}

// SuspendSeeds returns the functions and interface methods declared as
// suspension points with //revtr:suspends.
func (p *Program) SuspendSeeds() map[*types.Func]bool {
	seeds := map[*types.Func]bool{}
	for _, d := range p.dirs {
		for _, f := range d.pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if d.m.Allows(p.Fset, n.Pos(), directive.Suspends) {
						if fn, ok := d.pkg.Info.Defs[n.Name].(*types.Func); ok {
							seeds[fn] = true
						}
					}
				case *ast.InterfaceType:
					for _, field := range n.Methods.List {
						if len(field.Names) == 0 {
							continue // embedded interface
						}
						if d.m.Allows(p.Fset, field.Pos(), directive.Suspends) {
							if fn, ok := d.pkg.Info.Defs[field.Names[0]].(*types.Func); ok {
								seeds[fn] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	return seeds
}

// Analyzer is one module-wide, flow-aware static check. It differs from
// analysis.Analyzer in scope: one run sees every loaded package through
// a shared Program instead of one package at a time.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass carries one Program through one module analyzer.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	report func(analysis.Diagnostic)
}

// NewPass assembles a module pass; report receives every diagnostic.
func NewPass(a *Analyzer, prog *Program, report func(analysis.Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Prog: prog, report: report}
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportfDir records a diagnostic at pos suppressible by the named
// //revtr: directive kind.
func (p *Pass) ReportfDir(pos token.Pos, dir, format string, args ...any) {
	p.report(analysis.Diagnostic{Pos: pos, Directive: dir, Message: fmt.Sprintf(format, args...)})
}
