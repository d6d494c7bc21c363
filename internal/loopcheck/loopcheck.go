// Package loopcheck detects directed cycles in successor graphs. It backs
// the loop-freedom-at-every-instant assertions (Theorem 3) in both the test
// harness and the scenario runner's invariant checking.
package loopcheck

import "sort"

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
