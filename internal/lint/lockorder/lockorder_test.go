package lockorder_test

import (
	"testing"

	"revtr/internal/lint/linttest"
	"revtr/internal/lint/lockorder"
)

// TestLockOrder proves a seeded sched↔registry-style inversion across
// two fixture packages (one edge declared via //revtr:calls, one static)
// is reported as a cycle, that a //revtr:lockorder-annotated edge
// keeps its would-be cycle out of the graph, and that a //revtr:calls
// target naming no function of a loaded package is reported while one
// outside the load is tolerated.
func TestLockOrder(t *testing.T) {
	linttest.RunModule(t, "testdata", lockorder.Analyzer)
}
