package olsr

import (
	"maps"
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/netstack"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

// coverInputs is a copy of the MPR cover's inputs, the neighbor table,
// taken at one instant.
type coverInputs struct {
	at   sim.Time
	nbrs map[netstack.NodeID]nbCopy
}

type nbCopy struct {
	sym    bool
	expiry sim.Time
	twoHop []netstack.NodeID
}

func snapshotInputs(p *Protocol, at sim.Time) coverInputs {
	in := coverInputs{at: at, nbrs: make(map[netstack.NodeID]nbCopy)}
	for id, nb := range p.nbrs.All() {
		in.nbrs[id] = nbCopy{sym: nb.Sym, expiry: nb.Expiry, twoHop: slices.Clone(nb.TwoHopList)}
	}
	return in
}

// naiveCover is the textbook greedy MPR cover over maps: among the
// symmetric neighbors live at in.at, repeatedly pick the one covering the
// most still-uncovered strict two-hop neighbors (lowest id on ties), and
// fall back to the lowest-id neighbor when nothing needs covering.
func naiveCover(self netstack.NodeID, in coverInputs) map[netstack.NodeID]bool {
	sym := make(map[netstack.NodeID]bool)
	for id, nb := range in.nbrs {
		if nb.sym && nb.expiry > in.at {
			sym[id] = true
		}
	}
	uncovered := make(map[netstack.NodeID]bool)
	for id := range sym {
		for _, th := range in.nbrs[id].twoHop {
			if th != self && !sym[th] {
				uncovered[th] = true
			}
		}
	}
	ids := slices.Sorted(maps.Keys(sym))
	mprs := make(map[netstack.NodeID]bool)
	for len(uncovered) > 0 {
		best, bestCover := netstack.NodeID(0), 0
		for _, id := range ids {
			if mprs[id] {
				continue
			}
			cover := 0
			for _, th := range in.nbrs[id].twoHop {
				if uncovered[th] {
					cover++
				}
			}
			if cover > bestCover {
				best, bestCover = id, cover
			}
		}
		if bestCover == 0 {
			break
		}
		mprs[best] = true
		for _, th := range in.nbrs[best].twoHop {
			delete(uncovered, th)
		}
	}
	if len(mprs) == 0 && len(ids) > 0 {
		mprs[ids[0]] = true
	}
	return mprs
}

// TestDeferredCoverMatchesEager pins the ordering contract of the deferred
// MPR cover: every HELLO advertises the set an eager cover would have
// left, that is, the greedy cover of the inputs as they stood right after
// the last trigger (a HELLO receipt, a DataFailed, a dirty expiry sweep),
// with liveness judged at that trigger's instant. A ControlFailed is not a
// trigger, so the cover owed from before it must run on the inputs from
// before its removal.
func TestDeferredCoverMatchesEager(t *testing.T) {
	const self = netstack.NodeID(0)
	w := rtest.NewStopped(1, 120, factory, []geo.Point{{}}, nil)
	p := w.Nodes[0].Protocol().(*Protocol)
	last := snapshotInputs(p, 0)
	at := func(d time.Duration) { w.Sim.RunUntil(d) }
	recv := func(from netstack.NodeID, nbs ...netstack.NodeID) {
		p.RecvControl(from, &hello{From: from, Neighbors: slices.Sorted(slices.Values(nbs))})
		last = snapshotInputs(p, w.Sim.Now())
	}
	sweep := func() {
		// No route lookup runs here, so the tables stay dirty and every
		// sweep after the first HELLO is a trigger.
		p.expire()
		if p.dirty {
			last = snapshotInputs(p, w.Sim.Now())
		}
	}
	dataFailed := func(to netstack.NodeID) {
		p.DataFailed(to, &netstack.DataPacket{Src: self, Dst: to, TTL: netstack.DefaultTTL})
		last = snapshotInputs(p, w.Sim.Now())
	}
	controlFailed := func(to netstack.NodeID) { p.ControlFailed(to, nil) }
	checks := 0
	check := func(what string) {
		t.Helper()
		checks++
		now := w.Sim.Now()
		h := p.helloMessage()
		var live []netstack.NodeID
		for id, nb := range p.nbrs.All() {
			if nb.Expiry > now {
				live = append(live, id)
			}
		}
		slices.Sort(live)
		if !slices.Equal(h.Neighbors, live) {
			t.Fatalf("%s at %v: HELLO neighbors %v, want the live table %v", what, now, h.Neighbors, live)
		}
		var want []netstack.NodeID
		for _, id := range live {
			if naiveCover(self, last)[id] {
				want = append(want, id)
			}
		}
		if !slices.Equal(h.MPRs, want) {
			t.Fatalf("%s at %v: HELLO MPRs %v, want %v (cover of the inputs at %v)", what, now, h.MPRs, want, last.at)
		}
	}

	// A ControlFailed between a HELLO receipt and the next emission: the
	// cover owed from 1.5 s is {2, 3}, so with 2 removed only 3 is
	// advertised. Run after the removal it would pick {1, 3} instead.
	at(time.Second)
	recv(1, self, 10)
	at(1100 * time.Millisecond)
	recv(2, self, 10, 11)
	at(1200 * time.Millisecond)
	check("first cover")
	at(1500 * time.Millisecond)
	recv(3, self, 12)
	at(1600 * time.Millisecond)
	controlFailed(2)
	at(1700 * time.Millisecond)
	check("ControlFailed after a HELLO receipt")

	// A neighbor expiring between the last trigger and the emission: at
	// 7.9 s neighbor 5 is live and alone covers {20, 21}; it expires at
	// 8 s, before the next sweep. The advertised set is the 7.9-s cover
	// without 5, not a cover judged at 8.05 s, which would pick 6 and 7.
	at(2 * time.Second)
	recv(5, self, 20, 21)
	at(3 * time.Second)
	sweep()
	at(6 * time.Second)
	recv(6, self, 20)
	recv(7, self, 21)
	recv(1, self, 10)
	recv(3, self, 12)
	at(7900 * time.Millisecond)
	recv(6, self, 20)
	at(8050 * time.Millisecond)
	check("neighbor expired after the last trigger")
	at(8100 * time.Millisecond)
	sweep()
	check("sweep after the expiry")

	// Random interleavings of every input path.
	rng := sim.New(7).Rand()
	now := w.Sim.Now()
	for step := 0; step < 3000; step++ {
		now += sim.Time(rng.Int63n(int64(800 * time.Millisecond)))
		at(now)
		from := netstack.NodeID(1 + rng.Intn(8))
		switch r := rng.Intn(20); {
		case r < 11:
			var nbs []netstack.NodeID
			if rng.Intn(5) != 0 {
				nbs = append(nbs, self)
			}
			for id := netstack.NodeID(1); id <= 16; id++ {
				if rng.Intn(4) == 0 {
					nbs = append(nbs, id)
				}
			}
			recv(from, nbs...)
		case r < 14:
			sweep()
		case r < 15:
			dataFailed(from)
		case r < 16:
			controlFailed(from)
		default:
			check("random script")
		}
	}
	if checks < 400 {
		t.Fatalf("only %d HELLOs checked", checks)
	}
}
