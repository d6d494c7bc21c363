package radio

import (
	"math"
	"math/bits"
	"time"

	"slr/internal/geo"
	"slr/internal/sim"
)

// grid is a spatial index over stations plus a neighbour list per
// station: a sparse hash of square cells, cell side = the propagation
// model's maximum range, holding each station under a cached position, and
// for each sender the stations it could reach before the cached positions
// are next refreshed (a Verlet neighbour list, as in molecular dynamics).
//
// Cached positions are refreshed in one bulk pass per mobility epoch,
// triggered by the first transmission at or past the epoch deadline. An
// epoch lasts slack / MaxSpeed, the time a fastest-possible station needs
// to travel slack meters, so every cached position stays within slack of
// its station's true position for the whole epoch (a station registered
// mid-epoch is cached at registration, which is later still).
//
// A sender's list is built on its first transmission of an epoch and
// holds (j, LinkRange(sender, j)²) for every station j with
//
//	|cached_sender − cached_j| ≤ LinkRange(sender, j) + 2·slack + margin.
//
// If the true positions are within link range at any instant of the
// epoch, the cached ones are within link range plus both stations' drift,
// 2·slack, so the list is a superset of every station the sender can reach
// until the next refresh. The caller applies the exact per-link test to
// true positions against each entry, so the audible set is identical to
// the O(N) linear scan, station for station; a list spends one LinkRange
// call per candidate per epoch instead of one per candidate per frame.
// Refreshing positions and registering a station both invalidate every
// list by bumping one epoch counter.
//
// Lists are in registration order so reception events are scheduled in
// exactly the order the linear scan would produce — byte-identical
// simulation results, enforced by TestGridMatchesLinear. Ordering costs no
// sort: the build marks candidates in a bitset over registration indices
// and reads them back in ascending-bit order.
type grid struct {
	cell  float64 // cell side, = Propagation.MaxRange()
	inv   float64 // 1 / cell
	pad   float64 // how far a list entry's cached distance may exceed its link range
	reach float64 // list-build search radius: MaxRange + linkRangeTolerance + pad
	// refresh is the epoch length, the max cache age; 0 = stations never
	// move.
	refresh sim.Time
	// nextRefresh is the current epoch's deadline: the first transmission
	// at or past it re-caches every station (see maybeRefresh).
	nextRefresh sim.Time
	// epoch numbers the current generation of neighbour lists; a list
	// built under an older number is stale.
	epoch uint64
	cells map[int64][]*station
	marks []uint64 // candidate bitset over registration indices
	cands []int32  // scratch for query results (registration indices)
}

// nbr is one neighbour-list entry: a station the list's owner may reach
// this epoch and the squared range of their link.
type nbr struct {
	st  *station
	lr2 float64
}

// gridSlackFraction is the allowed cache drift as a fraction of the cell
// side. Smaller means shorter neighbour lists but more frequent refreshes
// and list builds; at 1/4 a 20 m/s node under a 275 m range refreshes
// every ~3.4 s of simulated time.
const gridSlackFraction = 0.25

const (
	// linkRangeTolerance is how far the Propagation contract lets
	// LinkRange exceed MaxRange (rounding in the model's own math).
	linkRangeTolerance = 1e-9
	// listMargin absorbs float64 rounding in the cached and exact
	// distance computations: a micrometre, far above the rounding error
	// at any terrain size the simulator runs.
	listMargin = 1e-6
)

// newGrid sizes a grid for the given propagation reach and speed bound.
// maxSpeed 0 means stations are known never to move: no slack, no
// refreshing.
func newGrid(maxRange, maxSpeed float64) *grid {
	g := &grid{
		cell:  maxRange,
		inv:   1 / maxRange,
		pad:   listMargin,
		cells: make(map[int64][]*station),
	}
	if maxSpeed > 0 {
		slack := maxRange * gridSlackFraction
		g.pad += 2 * slack
		g.refresh = sim.Time(slack / maxSpeed * float64(time.Second))
	}
	g.reach = maxRange + linkRangeTolerance + g.pad
	return g
}

// cellKey packs the cell coordinates of p into one map key.
func (g *grid) cellKey(p geo.Point) int64 {
	cx := int32(math.Floor(p.X * g.inv))
	cy := int32(math.Floor(p.Y * g.inv))
	return int64(cx)<<32 | int64(uint32(cy))
}

// insert adds a newly registered station at its current position. The
// fresh cache is younger than the current epoch's bulk pass, so the drift
// bound holds for it until the next epoch like for everyone else; the
// existing lists lack it, so they are invalidated.
func (g *grid) insert(st *station, pos geo.Point, nStations int) {
	g.epoch++
	st.cachedPos = pos
	st.cellKey = g.cellKey(pos)
	bucket := g.cells[st.cellKey]
	st.slot = len(bucket)
	g.cells[st.cellKey] = append(bucket, st)
	if need := (nStations + 63) / 64; need > len(g.marks) {
		g.marks = append(g.marks, make([]uint64, need-len(g.marks))...)
	}
}

// move re-caches st's position, re-bucketing it if it crossed a cell edge.
func (g *grid) move(st *station, pos geo.Point) {
	st.cachedPos = pos
	key := g.cellKey(pos)
	if key == st.cellKey {
		return
	}
	// Swap-remove from the old bucket.
	old := g.cells[st.cellKey]
	last := old[len(old)-1]
	old[st.slot] = last
	last.slot = st.slot
	old[len(old)-1] = nil
	g.cells[st.cellKey] = old[:len(old)-1]

	st.cellKey = key
	bucket := g.cells[key]
	st.slot = len(bucket)
	g.cells[key] = append(bucket, st)
}

// maybeRefresh starts a new mobility epoch when the current one has
// expired: one bulk pass re-caching every station. Transmissions between
// epoch boundaries see caches at most one epoch (refresh) old, which
// bounds drift to slack meters and keeps every neighbour list a superset.
func (g *grid) maybeRefresh(stations []*station, now sim.Time) {
	if g.refresh == 0 || now < g.nextRefresh {
		return
	}
	for _, st := range stations {
		g.move(st, st.mob.Position(now))
	}
	g.nextRefresh = now + g.refresh
	g.epoch++
}

// neighbours returns s's neighbour list for the current epoch, building it
// on first use: every station whose cached distance from s is within the
// link's range plus pad (see grid). The slice is owned by s and valid
// until the epoch ends.
func (g *grid) neighbours(s *station, stations []*station, prop Propagation) []nbr {
	if s.nbrEpoch == g.epoch {
		return s.nbrs
	}
	s.nbrEpoch = g.epoch
	s.nbrs = s.nbrs[:0]
	for _, idx := range g.query(s.cachedPos) {
		st := stations[idx]
		if st == s {
			continue
		}
		lr := prop.LinkRange(s.id, st.id)
		if r := lr + g.pad; s.cachedPos.Dist2(st.cachedPos) > r*r {
			continue
		}
		s.nbrs = append(s.nbrs, nbr{st: st, lr2: lr * lr})
	}
	return s.nbrs
}

// query returns the registration indices of every station in a cell that
// overlaps the disk of radius reach around pos, sorted ascending — i.e. in
// registration order, the order the linear scan visits stations. Cells
// overlapping the bounding box of the disk but not the disk itself are
// skipped outright (the corner cells, ~1/4 of the box). The slice is
// scratch, valid until the next query.
func (g *grid) query(pos geo.Point) []int32 {
	g.cands = g.cands[:0]
	cx0 := int32(math.Floor((pos.X - g.reach) * g.inv))
	cx1 := int32(math.Floor((pos.X + g.reach) * g.inv))
	cy0 := int32(math.Floor((pos.Y - g.reach) * g.inv))
	cy1 := int32(math.Floor((pos.Y + g.reach) * g.inv))
	r2 := g.reach * g.reach
	for cy := cy0; cy <= cy1; cy++ {
		// Distance from pos to the cell row's nearest y edge.
		dy := 0.0
		if lo := float64(cy) * g.cell; pos.Y < lo {
			dy = lo - pos.Y
		} else if hi := float64(cy+1) * g.cell; pos.Y > hi {
			dy = pos.Y - hi
		}
		for cx := cx0; cx <= cx1; cx++ {
			dx := 0.0
			if lo := float64(cx) * g.cell; pos.X < lo {
				dx = lo - pos.X
			} else if hi := float64(cx+1) * g.cell; pos.X > hi {
				dx = pos.X - hi
			}
			if dx*dx+dy*dy > r2 {
				continue // cell entirely outside the search disk
			}
			key := int64(cx)<<32 | int64(uint32(cy))
			for _, st := range g.cells[key] {
				g.marks[st.idx>>6] |= 1 << (uint(st.idx) & 63)
			}
		}
	}
	for w, x := range g.marks {
		if x == 0 {
			continue
		}
		g.marks[w] = 0
		base := int32(w << 6)
		for x != 0 {
			g.cands = append(g.cands, base+int32(bits.TrailingZeros64(x)))
			x &= x - 1
		}
	}
	return g.cands
}
