package core

import (
	"fmt"
	"sort"

	"slr/internal/loopcheck"
)

// Graph is a live checker for the SLR invariants of Theorems 1–3 over one
// destination's successor graph. Simulations feed it every relabel and every
// successor change; it rejects label increases (labels must be non-increasing
// over time, the consequence of Eq. 3) and verifies on demand that every
// successor edge respects the topological order and that the graph is
// acyclic — i.e. that routing is loop-free at this instant.
type Graph[L any] struct {
	set    Set[L]
	labels map[int]L
	succ   map[int]map[int]struct{}
	// checks counts invariant verifications, for test introspection.
	checks int
}

// NewGraph returns an empty checker over the given label set. Nodes that
// were never labeled implicitly hold the greatest (unassigned) label.
func NewGraph[L any](set Set[L]) *Graph[L] {
	return &Graph[L]{
		set:    set,
		labels: make(map[int]L),
		succ:   make(map[int]map[int]struct{}),
	}
}

// Label returns node n's current label, or the greatest element if unset.
func (g *Graph[L]) Label(n int) L {
	if l, ok := g.labels[n]; ok {
		return l
	}
	return g.set.Greatest()
}

// SetLabel records a relabel of node n. It returns an error if the new label
// is greater than the node's current label: SLR labels are non-increasing
// with time, and an increase would break Theorem 1.
func (g *Graph[L]) SetLabel(n int, l L) error {
	cur := g.Label(n)
	if g.set.Less(cur, l) {
		return fmt.Errorf("node %d: label increased from %v to %v: %w", n, cur, l, ErrPredecessorOrder)
	}
	g.labels[n] = l
	return nil
}

// AddSuccessor records the successor edge (from, to). It returns an error if
// the edge violates topological order under the *current* labels; because
// labels are non-increasing, the successor's current label is an upper bound
// for any label the predecessor could have cached (Theorem 1's argument).
func (g *Graph[L]) AddSuccessor(from, to int) error {
	lf, lt := g.Label(from), g.Label(to)
	if !g.set.Less(lt, lf) {
		return fmt.Errorf("edge %d->%d: successor label %v not below %v: %w", from, to, lt, lf, ErrInfeasible)
	}
	s, ok := g.succ[from]
	if !ok {
		s = make(map[int]struct{})
		g.succ[from] = s
	}
	s[to] = struct{}{}
	return nil
}

// RemoveSuccessor drops the edge (from, to) if present.
func (g *Graph[L]) RemoveSuccessor(from, to int) {
	delete(g.succ[from], to)
}

// ClearSuccessors drops all successor edges of from.
func (g *Graph[L]) ClearSuccessors(from int) {
	delete(g.succ, from)
}

// Successors returns from's successor set in ascending node order.
func (g *Graph[L]) Successors(from int) []int {
	out := make([]int, 0, len(g.succ[from]))
	for n := range g.succ[from] {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Checks returns how many times Verify has run.
func (g *Graph[L]) Checks() int { return g.checks }

// Verify checks the full invariant: every edge (i, j) satisfies
// label(j) < label(i) (topological order, which implies acyclicity,
// Theorem 3), and — defense in depth — loopcheck.FindCycle confirms there
// is no directed cycle.
func (g *Graph[L]) Verify() error {
	g.checks++
	for from, set := range g.succ {
		lf := g.Label(from)
		for to := range set {
			if !g.set.Less(g.Label(to), lf) {
				return fmt.Errorf("edge %d->%d: label %v not below %v: topological order broken",
					from, to, g.Label(to), lf)
			}
		}
	}
	adj := make(map[int][]int, len(g.succ))
	for from := range g.succ {
		adj[from] = g.Successors(from)
	}
	if cycle := loopcheck.FindCycle(adj); cycle != nil {
		return fmt.Errorf("routing loop: cycle %v", cycle)
	}
	return nil
}
