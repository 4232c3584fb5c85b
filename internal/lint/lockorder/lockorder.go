// Package lockorder builds the module-wide lock acquisition-order graph
// and reports any cycle. A node is one mutex identity (owner type +
// field); an edge A → B means some code path acquires B while holding A
// — either directly, or by calling (transitively) a function that
// acquires B. Two inverted edges are a potential deadlock: one goroutine
// holding A waits for B while another holding B waits for A. The
// sched → registry ordering the batch layer documents in prose becomes
// a machine-checked invariant here, with //revtr:calls declaring the
// callback edges the static resolver cannot see.
//
// Read locks share their mutex's node: an RLock-while-holding edge still
// orders the two locks (a writer on the far side makes reader/reader
// cases deadlock-equivalent), so cycle detection treats modes alike.
// Self-edges (re-acquiring the same identity) are not reported — two
// instances of one type are distinct locks, and instance identity is
// beyond a static key.
//
// An edge is excused with //revtr:lockorder <why> on the acquisition or
// call line that creates it. A //revtr:calls target that names no
// function of its loaded package is reported too: the edge it was meant
// to declare is missing from the graph.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"revtr/internal/lint/directive"
	"revtr/internal/lint/flow"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &flow.Analyzer{
	Name: "lockorder",
	Doc:  "the module-wide lock acquisition-order graph must stay acyclic",
	Run:  run,
}

type edge struct {
	from, to string
	pos      token.Pos
	// via names the callee the edge flows through ("" for a direct
	// acquisition in the same function).
	via string
}

func run(pass *flow.Pass) error {
	prog := pass.Prog
	prog.DanglingCalls(func(call token.Pos, target string) {
		pass.Reportf(call, "//revtr:calls target %s names no function in its package; the declared call-graph edge is missing — fix the target", target)
	})

	// Transitive acquire sets: every lock a call into fn may take, on
	// this goroutine (go-launched work is excluded by the call graph).
	acq := map[*types.Func]map[string]bool{}
	var transAcq func(fn *types.Func, onStack map[*types.Func]bool) map[string]bool
	transAcq = func(fn *types.Func, onStack map[*types.Func]bool) map[string]bool {
		if got, ok := acq[fn]; ok {
			return got
		}
		if onStack[fn] {
			return nil // recursion: the cycle's locks are collected by the caller
		}
		onStack[fn] = true
		defer delete(onStack, fn)
		set := map[string]bool{}
		if facts := prog.LockFacts(fn); facts != nil {
			for _, a := range facts.Acquires {
				if !a.Ticket {
					set[a.Key] = true
				}
			}
		}
		for _, callee := range prog.Callees(fn) {
			for k := range transAcq(callee, onStack) {
				set[k] = true
			}
		}
		acq[fn] = set
		return set
	}

	// Edge collection, deduped on (from, to) keeping the lexically first
	// example so messages are deterministic.
	edges := map[[2]string]edge{}
	before := func(a, b token.Pos) bool {
		pa, pb := prog.Fset.Position(a), prog.Fset.Position(b)
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Offset < pb.Offset
	}
	addEdge := func(e edge) {
		if e.from == e.to {
			return
		}
		k := [2]string{e.from, e.to}
		if old, ok := edges[k]; !ok || before(e.pos, old.pos) {
			edges[k] = e
		}
	}

	for _, fi := range prog.SortedFuncs() {
		facts := prog.LockFacts(fi.Fn)
		if facts == nil {
			continue
		}
		for _, a := range facts.Acquires {
			if a.Ticket || len(a.Holding) == 0 {
				continue
			}
			if prog.Allows(a.Pos, directive.LockOrder) {
				continue
			}
			for _, h := range a.Holding {
				if !h.Ticket {
					addEdge(edge{from: h.Key, to: a.Key, pos: a.Pos})
				}
			}
		}
		for _, c := range facts.Calls {
			if c.Callee == nil || len(c.Holding) == 0 {
				continue
			}
			if prog.Allows(c.Pos, directive.LockOrder) {
				continue
			}
			for to := range transAcq(c.Callee, map[*types.Func]bool{}) {
				for _, h := range c.Holding {
					if !h.Ticket {
						addEdge(edge{from: h.Key, to: to, pos: c.Pos, via: c.Callee.Name()})
					}
				}
			}
		}
	}

	// Cycle detection: find strongly connected components; any SCC with
	// more than one node contains at least one acquisition-order cycle.
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for k := range edges {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	for _, succs := range adj {
		sort.Strings(succs)
	}
	for _, scc := range tarjan(nodes, adj) {
		if len(scc) < 2 {
			continue
		}
		cycle := shortestCycle(scc, adj)
		if cycle == nil {
			continue
		}
		var steps []string
		var first edge
		for i := range cycle {
			e := edges[[2]string{cycle[i], cycle[(i+1)%len(cycle)]}]
			if i == 0 {
				first = e
			}
			p := prog.Fset.Position(e.pos)
			via := ""
			if e.via != "" {
				via = " via " + e.via
			}
			steps = append(steps, fmt.Sprintf("%s (%s:%d%s)", cycle[(i+1)%len(cycle)], filepath.Base(p.Filename), p.Line, via))
		}
		pass.ReportfDir(first.pos, directive.LockOrder,
			"lock-order cycle: %s → %s; two goroutines taking these locks in opposite orders deadlock — pick one order everywhere or annotate the benign edge //revtr:lockorder <why>",
			cycle[0], strings.Join(steps, " → "))
	}
	return nil
}

// tarjan returns the strongly connected components of the graph in a
// deterministic order (roots visited in sorted node order).
func tarjan(nodes map[string]bool, adj map[string][]string) [][]string {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, n := range sorted {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return sccs
}

// shortestCycle finds a shortest cycle through the smallest node of the
// SCC, restricted to SCC-internal edges, via BFS.
func shortestCycle(scc []string, adj map[string][]string) []string {
	in := map[string]bool{}
	for _, n := range scc {
		in[n] = true
	}
	start := scc[0] // scc is sorted
	parent := map[string]string{}
	queue := []string{start}
	visited := map[string]bool{start: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !in[w] {
				continue
			}
			if w == start {
				// Reconstruct start → ... → v, closing back to start.
				var rev []string
				for u := v; u != start; u = parent[u] {
					rev = append(rev, u)
				}
				cycle := []string{start}
				for i := len(rev) - 1; i >= 0; i-- {
					cycle = append(cycle, rev[i])
				}
				return cycle
			}
			if !visited[w] {
				visited[w] = true
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return nil
}
