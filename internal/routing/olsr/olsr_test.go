package olsr

import (
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func factory(id netstack.NodeID) netstack.Protocol { return New(DefaultConfig()) }

func TestNeighborDiscovery(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	sym := 0
	for _, nb := range p.nbrs.All() {
		if nb.Sym {
			sym++
		}
	}
	if sym != 2 {
		t.Fatalf("node 1 has %d symmetric neighbors, want 2", sym)
	}
	// Edge nodes see only one neighbor.
	p0 := w.Nodes[0].Protocol().(*Protocol)
	if len(p0.SuccessorsOf(1)) != 1 {
		t.Fatal("node 0 cannot route to direct neighbor")
	}
}

func TestProactiveRoutesBeforeTraffic(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second) // several TC rounds
	// Every pair must be routable without any discovery.
	for i := range w.Nodes {
		p := w.Nodes[i].Protocol().(*Protocol)
		for j := range w.Nodes {
			if i == j {
				continue
			}
			if len(p.SuccessorsOf(netstack.NodeID(j))) == 0 {
				t.Fatalf("node %d has no route to %d", i, j)
			}
		}
	}
	// Data now flows with zero additional control on the data path.
	w.Send(0, 4)
	w.Sim.RunUntil(21 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if h := w.MX.MeanHops(); h != 4 {
		t.Fatalf("hops = %v, want 4 (shortest path)", h)
	}
}

func TestMPRSelectionCoversTwoHop(t *testing.T) {
	// Star-of-chains: center 0 with arms; the center's MPR set must
	// cover all two-hop neighbors.
	pts := []geo.Point{
		{X: 0, Y: 0},    // 0 center
		{X: 100, Y: 0},  // 1
		{X: 200, Y: 0},  // 2 two-hop via 1
		{X: 0, Y: 100},  // 3
		{X: 0, Y: 200},  // 4 two-hop via 3
		{X: -100, Y: 0}, // 5 leaf neighbor
	}
	w := rtest.New(1, 120, factory, pts, nil)
	w.Sim.RunUntil(15 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	mprs := p.helloMessage().MPRs
	if !slices.Contains(mprs, 1) {
		t.Error("node 1 (only path to 2) not selected as MPR")
	}
	if !slices.Contains(mprs, 3) {
		t.Error("node 3 (only path to 4) not selected as MPR")
	}
}

func TestTCFloodBuildsRemoteRoutes(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(6, 100), nil)
	w.Sim.RunUntil(25 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	if got := p.SuccessorsOf(5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("route 0->5 next hop = %v, want [1]", got)
	}
	w.Send(0, 5)
	w.Sim.RunUntil(26 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if h := w.MX.MeanHops(); h != 5 {
		t.Fatalf("hops to 5 = %v, want 5", h)
	}
}

func TestPeriodicOverheadAccrues(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Sim.RunUntil(30 * time.Second)
	// ~15 HELLO rounds x 4 nodes plus TC floods: at least 60 control
	// packets with zero data sent — the proactive cost.
	if w.MX.ControlTx < 60 {
		t.Fatalf("ControlTx = %d, want >= 60", w.MX.ControlTx)
	}
	if w.MX.DataSent != 0 {
		t.Fatal("unexpected data traffic")
	}
}

func TestLinkLossAgesOut(t *testing.T) {
	pts := rtest.Chain(3, 100)
	models := make([]mobility.Model, 3)
	models[2] = mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: pts[2]},
		{At: 10 * time.Second, Pos: pts[2]},
		{At: 10*time.Second + time.Millisecond, Pos: geo.Point{X: 9000}},
	})
	w := rtest.New(1, 120, factory, pts, models)
	w.Sim.RunUntil(9 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	if len(p.SuccessorsOf(2)) != 1 {
		t.Fatal("route to 2 missing before departure")
	}
	w.Sim.RunUntil(25 * time.Second)
	if len(p.SuccessorsOf(2)) != 0 {
		t.Fatal("route to vanished node survived the hold time")
	}
}

func TestDeliveryInMobileNetwork(t *testing.T) {
	const n = 20
	positions := make([]geo.Point, n)
	models := make([]mobility.Model, n)
	rng := sim.New(13).Rand()
	terrain := geo.Terrain{Width: 600, Height: 300}
	for i := range models {
		models[i] = mobility.NewWaypoint(terrain, rng, 0, 10, 5*time.Second)
	}
	w := rtest.New(5, 250, factory, positions, models)
	for i := 10; i < 40; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() {
			src := i % n
			w.Send(src, (src+1+i%(n-1))%n)
		})
	}
	w.Sim.RunUntil(45 * time.Second)
	if w.MX.DataRecv < 15 {
		t.Fatalf("delivered %d/30 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestRecomputeAllocFree(t *testing.T) {
	// Steady-state rebuilds must reuse the preallocated route map, BFS
	// visited set and queue, and MPR bitsets: zero allocations once the
	// scratch is warm, even when the version check is defeated and the
	// full BFS + greedy cover actually run. A HELLO receipt that changes a
	// two-hop set rewrites TwoHopList in place and must not allocate
	// either.
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second)
	p := w.Nodes[2].Protocol().(*Protocol)
	now := w.Sim.Now()
	// Warm the scratch with one forced full rebuild of each computation.
	p.dirty, p.linkVer, p.mprInVer = true, p.linkVer+1, p.mprInVer+1
	p.selectMPRs(now)
	p.recompute()
	if allocs := testing.AllocsPerRun(100, func() {
		p.dirty = true
		p.linkVer++
		p.recompute()
	}); allocs != 0 {
		t.Errorf("steady-state recompute allocates %.0f objects/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.mprInVer++
		p.selectMPRs(now)
	}); allocs != 0 {
		t.Errorf("steady-state selectMPRs allocates %.0f objects/run, want 0", allocs)
	}
	// Node 3's HELLO alternates between two neighbor lists, so every
	// receipt changes node 2's two-hop set through 3.
	hellos := [2]*hello{
		{From: 3, Neighbors: []netstack.NodeID{2, 4}},
		{From: 3, Neighbors: []netstack.NodeID{0, 2, 4}},
	}
	p.handleHello(3, hellos[1])
	p.flushMPRs()
	i := 0
	runs := p.mprRuns
	if allocs := testing.AllocsPerRun(100, func() {
		p.handleHello(3, hellos[i%2])
		p.flushMPRs()
		i++
	}); allocs != 0 {
		t.Errorf("steady-state handleHello with a changed list allocates %.0f objects/run, want 0", allocs)
	}
	if p.mprRuns == runs {
		t.Error("changed two-hop sets never ran the MPR cover")
	}
}

func TestRecomputeSkipsWhenInputsUnchanged(t *testing.T) {
	// A dirty flag alone must not force a rebuild: with an unchanged
	// structure version and the clock before the expiry horizon, both
	// cached computations are provably current and must be skipped.
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second)
	p := w.Nodes[2].Protocol().(*Protocol)
	p.recompute() // settle the cache
	before := p.rebuilds
	for i := 0; i < 5; i++ {
		p.dirty = true // e.g. a content-identical TC refresh
		p.recompute()
	}
	if p.rebuilds != before {
		t.Errorf("recompute ran %d times on unchanged inputs, want 0", p.rebuilds-before)
	}
	p.dirty = true
	p.linkVer++ // a structural change invalidates the cache
	p.recompute()
	if p.rebuilds != before+1 {
		t.Errorf("recompute after version bump ran %d times, want 1", p.rebuilds-before)
	}
	now := w.Sim.Now()
	p.flushMPRs()
	mprBefore := p.mprRuns
	for i := 0; i < 5; i++ {
		p.selectMPRs(now)
	}
	if p.mprRuns != mprBefore {
		t.Errorf("selectMPRs ran %d times on unchanged inputs, want 0", p.mprRuns-mprBefore)
	}
	p.mprInVer++
	p.selectMPRs(now)
	if p.mprRuns != mprBefore+1 {
		t.Errorf("selectMPRs after version bump ran %d times, want 1", p.mprRuns-mprBefore)
	}
	// HELLO receipts only mark the cover due, however many of them change
	// a two-hop set; building the next HELLO runs it once.
	mprBefore = p.mprRuns
	for i := 0; i < 5; i++ {
		p.handleHello(3, &hello{From: 3, Neighbors: []netstack.NodeID{2, 4, netstack.NodeID(10 + i)}})
	}
	if p.mprRuns != mprBefore {
		t.Errorf("HELLO receipts ran the cover %d times, want 0", p.mprRuns-mprBefore)
	}
	p.helloMessage()
	if p.mprRuns != mprBefore+1 {
		t.Errorf("building a HELLO after changed receipts ran the cover %d times, want 1", p.mprRuns-mprBefore)
	}
}

func TestMPRCoverProperty(t *testing.T) {
	// Property: for random neighborhoods, the greedy MPR set covers
	// every strict two-hop neighbor reachable through a symmetric
	// neighbor.
	rng := sim.New(21).Rand()
	for trial := 0; trial < 200; trial++ {
		p := New(DefaultConfig())
		w := rtest.New(int64(trial), 120,
			func(netstack.NodeID) netstack.Protocol { return p },
			[]geo.Point{{X: 0}}, nil)
		_ = w
		nNb := 1 + rng.Intn(8)
		twoHopUniverse := make(map[netstack.NodeID]bool)
		for i := 0; i < nNb; i++ {
			id := netstack.NodeID(100 + i)
			nb := p.nbrs.Touch(id, sim.Time(time.Hour))
			nb.Sym = true
			// Tests mutate the table directly, so mirror the symmetry
			// flip into the sorted slice as handleHello would.
			p.symInsert(id, nb)
			p.mprInVer++
			for j := 0; j < rng.Intn(6); j++ {
				th := netstack.NodeID(200 + rng.Intn(10))
				if !slices.Contains(nb.TwoHopList, th) {
					nb.TwoHopList = append(nb.TwoHopList, th)
				}
				if th > nb.TwoHopMax {
					nb.TwoHopMax = th
				}
				twoHopUniverse[th] = true
			}
		}
		p.selectMPRs(0)
		// Verify cover.
		covered := make(map[netstack.NodeID]bool)
		for id := range p.mprs {
			nb, _ := p.nbrs.Get(id)
			for _, th := range nb.TwoHopList {
				covered[th] = true
			}
		}
		for th := range twoHopUniverse {
			if !covered[th] {
				t.Fatalf("trial %d: two-hop %d uncovered by MPRs %v", trial, th, p.mprs)
			}
		}
		// Non-emptiness rule: some MPR whenever a neighbor exists.
		if nNb > 0 && len(p.mprs) == 0 {
			t.Fatalf("trial %d: no MPR selected with %d neighbors", trial, nNb)
		}
	}
}
