// Package loopcheck detects directed cycles in successor graphs. It backs
// the loop-freedom-at-every-instant assertions (Theorem 3) in the test
// harness, the scenario runner's invariant checking, and core.Graph.
package loopcheck

import "sort"

// Lister is a node's view of its successors toward each destination; N is
// the node-ID type.
type Lister[N ~int] interface {
	SuccessorsOf(dst N) []N
}

// Adjacency returns dst's successor graph over nodes: an edge from i to
// every successor that nodes[i] lists toward dst. Nodes that are not a
// Lister[N] contribute no edges.
func Adjacency[N ~int, P any](nodes []P, dst N) map[int][]int {
	adj := make(map[int][]int)
	for i, n := range nodes {
		l, ok := any(n).(Lister[N])
		if !ok {
			continue
		}
		for _, s := range l.SuccessorsOf(dst) {
			adj[i] = append(adj[i], int(s))
		}
	}
	return adj
}

// FindCycle returns a directed cycle in adj as a node sequence whose first
// and last elements coincide, or nil if the graph is acyclic. The search is
// iterative, so deep graphs cannot overflow the stack. The result depends
// only on adj's contents: roots are visited in ascending node order and
// the cycle is rotated to start at its smallest node.
func FindCycle(adj map[int][]int) []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(adj))
	roots := make([]int, 0, len(adj))
	for n := range adj {
		roots = append(roots, n)
	}
	sort.Ints(roots)

	for _, root := range roots {
		if color[root] != white {
			continue
		}
		type frame struct {
			node int
			next int // index into adj[node]
		}
		stack := []frame{{node: root}}
		color[root] = gray
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			edges := adj[top.node]
			if top.next >= len(edges) {
				color[top.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			m := edges[top.next]
			top.next++
			switch color[m] {
			case gray:
				// Back edge: the cycle is the stack suffix from m.
				var cycle []int
				for i := range stack {
					if stack[i].node == m {
						for _, f := range stack[i:] {
							cycle = append(cycle, f.node)
						}
						break
					}
				}
				return rotateToMin(cycle)
			case white:
				color[m] = gray
				stack = append(stack, frame{node: m})
			}
		}
	}
	return nil
}

// rotateToMin closes the open node sequence cycle, starting it at its
// smallest node.
func rotateToMin(cycle []int) []int {
	lo := 0
	for i, n := range cycle {
		if n < cycle[lo] {
			lo = i
		}
	}
	out := make([]int, 0, len(cycle)+1)
	out = append(out, cycle[lo:]...)
	out = append(out, cycle[:lo]...)
	return append(out, cycle[lo])
}
