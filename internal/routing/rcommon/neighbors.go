package rcommon

import (
	"slr/internal/netstack"
	"slr/internal/sim"
)

// Neighbor is one entry of a NeighborTable: hello-refreshed liveness plus
// the link-state facts proactive protocols advertise about it.
type Neighbor struct {
	// Sym marks the link symmetric: the neighbor's hello listed us.
	Sym bool
	// Expiry is the hello-liveness deadline; a neighbor whose hellos stop
	// ages out at Expiry.
	Expiry sim.Time
	// TwoHopList is the neighbor set the neighbor last advertised, less
	// this node — the two-hop neighborhood MPR selection covers. It is
	// written whole from each hello, so it lives exactly as long as the
	// entry: it shares Expiry and needs no deadlines of its own. Protocols
	// that never populate it simply leave it nil.
	TwoHopList []netstack.NodeID
	// TwoHopMax is a conservative upper bound on the ids in TwoHopList,
	// maintained by the writer and never lowered. It lets id-indexed
	// scratch (MPR cover bitsets) be sized without scanning the list.
	TwoHopMax netstack.NodeID
	// SelectsMe marks that the neighbor chose this node as multipoint
	// relay.
	SelectsMe bool
}

// NeighborTable tracks one node's neighbors with the two liveness signals
// of §V's evaluation: hello receipt (Touch extends Expiry) and link-layer
// delivery failure (Remove kills the entry immediately, without waiting
// for the hold time to expire).
//
// Iteration over All is map-ordered and therefore unordered; callers must
// keep every outcome order-independent (or sort), exactly as the
// protocol-local maps this table replaces required.
type NeighborTable struct {
	m map[netstack.NodeID]*Neighbor
	// horizon is a lower bound on every liveness deadline in the table.
	// Before it, a sweep provably removes nothing and Expire returns
	// immediately; each real sweep recomputes the exact minimum, and Touch
	// lowers it for the deadlines it writes.
	horizon sim.Time
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable {
	return &NeighborTable{m: make(map[netstack.NodeID]*Neighbor)}
}

// Len returns the number of entries, live or not yet expired-out.
func (t *NeighborTable) Len() int { return len(t.m) }

// Get returns the entry for id, if present.
func (t *NeighborTable) Get(id netstack.NodeID) (*Neighbor, bool) {
	nb, ok := t.m[id]
	return nb, ok
}

// Touch records hello receipt from id: the entry is created on first
// contact and its liveness deadline extended to expiry.
func (t *NeighborTable) Touch(id netstack.NodeID, expiry sim.Time) *Neighbor {
	nb, ok := t.m[id]
	if !ok {
		nb = &Neighbor{}
		t.m[id] = nb
	}
	nb.Expiry = expiry
	if expiry < t.horizon {
		t.horizon = expiry
	}
	return nb
}

// Remove drops id on link-layer failure evidence; it reports whether an
// entry existed.
func (t *NeighborTable) Remove(id netstack.NodeID) bool {
	if _, ok := t.m[id]; !ok {
		return false
	}
	delete(t.m, id)
	return true
}

// Expire ages out neighbors whose hellos stopped. It reports whether
// anything changed. Sweeps before the horizon return immediately: no
// deadline in the table has passed, so a full scan would find nothing.
func (t *NeighborTable) Expire(now sim.Time) bool {
	if now < t.horizon {
		return false
	}
	const forever = sim.Time(1<<63 - 1)
	min := forever
	changed := false
	for id, nb := range t.m {
		if nb.Expiry <= now {
			delete(t.m, id)
			changed = true
			continue
		}
		if nb.Expiry < min {
			min = nb.Expiry
		}
	}
	t.horizon = min
	return changed
}

// All exposes the underlying map for iteration. Outcomes of an iteration
// must not depend on its order.
func (t *NeighborTable) All() map[netstack.NodeID]*Neighbor { return t.m }
