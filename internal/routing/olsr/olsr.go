// Package olsr implements the Optimized Link State Routing protocol
// (Clausen, Jacquet, et al.; IETF draft-ietf-manet-olsr-06), the proactive
// baseline of the paper's evaluation.
//
// Every node broadcasts periodic HELLOs to discover symmetric neighbors and
// the two-hop neighborhood, selects a minimal multipoint relay (MPR) set
// covering all two-hop neighbors, and floods topology-control (TC) messages
// through the MPR backbone. Routes are shortest paths over the resulting
// link-state database. OLSR has routes ready before traffic arrives (the
// paper's Fig. 6 shows its low latency) at the price of constant control
// overhead (Fig. 5) — and it is not loop-free at every instant during
// topology transients.
//
// # Incremental recomputation
//
// The routing table and the MPR set are pure functions of the link-state
// inputs alive at the evaluation instant: the symmetric-neighbor set, the
// two-hop neighborhoods, and the TC-learned topology, each filtered by its
// expiry deadline. Both computations are therefore cached behind two
// signals:
//
//   - a structure version, bumped only when an input actually changes (a
//     link appears, flips symmetry, or is removed; an advertised set
//     differs; a dead entry revives), not on every control receipt; and
//   - an expiry horizon, the earliest deadline among the inputs the last
//     computation consumed. Before the horizon, with an unchanged version,
//     re-running the computation would read exactly the same inputs and
//     produce exactly the same output, so it is skipped.
//
// The MPR cover is also deferred until its result is needed. A HELLO
// receipt, a link-layer data failure, and an expiry sweep that left the
// tables dirty each only mark a cover due and record the instant. The
// cover runs at that recorded instant (liveness is judged against it, not
// against the current clock) in two places: when the set is read, to
// build a HELLO, and just before an input changes without such a trigger,
// which is a control-frame failure removing a neighbor. Between a trigger
// and the next run no input changes, so the deferred cover reads exactly
// what a cover run at the trigger would have read, and every advertised
// MPR set is the one an eager cover after every trigger would produce
// (TestDeferredCoverMatchesEager). At pause 0 almost every HELLO receipt
// changes some neighbor's two-hop set, so the version cache alone would
// still run the cover once per HELLO received; deferred, it runs about
// once per HELLO sent.
//
// Rebuilds that do run reuse preallocated storage (the route map is
// cleared in place, the BFS visited set is a reused bitset, the BFS queue
// is popped by head index over a reused slice, and the symmetric-neighbor
// ring is maintained as a sorted slice incrementally), so the steady-state
// data plane allocates nothing — pinned by TestRecomputeAllocFree.
// Outputs are byte-identical per seed to the full-rebuild-per-dirty-flag
// implementation (TestOLSRGoldenJSONL at the repo root pins the JSONL
// stream), because every skip is justified by the purity argument above
// and every rebuild visits neighbors in the same sorted order.
package olsr

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Config holds OLSR's intervals and holds.
type Config struct {
	HelloInterval sim.Time
	TCInterval    sim.Time
	NeighborHold  sim.Time
	TopologyHold  sim.Time
	Jitter        sim.Time
}

// DefaultConfig returns the draft's default timing.
func DefaultConfig() Config {
	return Config{
		HelloInterval: 2 * time.Second,
		TCInterval:    5 * time.Second,
		NeighborHold:  6 * time.Second,
		TopologyHold:  15 * time.Second,
		Jitter:        500 * time.Millisecond,
	}
}

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; durations arrive in seconds. Unknown keys and
// out-of-range values are errors.
func ConfigFromParams(params map[string]float64) (Config, error) {
	cfg := DefaultConfig()
	if err := registry.ApplyParams("olsr", params, map[string]func(float64){
		"hello_interval_seconds": func(v float64) { cfg.HelloInterval = rcommon.Seconds(v) },
		"tc_interval_seconds":    func(v float64) { cfg.TCInterval = rcommon.Seconds(v) },
		"neighbor_hold_seconds":  func(v float64) { cfg.NeighborHold = rcommon.Seconds(v) },
		"topology_hold_seconds":  func(v float64) { cfg.TopologyHold = rcommon.Seconds(v) },
		"jitter_seconds":         func(v float64) { cfg.Jitter = rcommon.Seconds(v) },
	}); err != nil {
		return Config{}, err
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// validate rejects configurations no deployment could run.
func (c Config) validate() error {
	if c.HelloInterval <= 0 || c.TCInterval <= 0 || c.NeighborHold <= 0 ||
		c.TopologyHold <= 0 || c.Jitter <= 0 {
		return fmt.Errorf("olsr: intervals and holds must be positive (hello %v, tc %v, neighbor_hold %v, topology_hold %v, jitter %v)",
			c.HelloInterval, c.TCInterval, c.NeighborHold, c.TopologyHold, c.Jitter)
	}
	return nil
}

// hello advertises the sender's neighbor set; receivers use it for link
// sensing (bidirectionality), two-hop discovery, and MPR signaling.
type hello struct {
	From      netstack.NodeID
	Neighbors []netstack.NodeID // neighbors of From, sorted by id
	MPRs      []netstack.NodeID // neighbors From selected as MPR, sorted by id
}

// tc floods the sender's MPR-selector set through the MPR backbone.
type tc struct {
	Orig       netstack.NodeID
	Seq        uint32
	Advertised []netstack.NodeID
	TTL        int
}

// Wire sizes.
const (
	helloBase = 8
	tcBase    = 12
	perAddr   = 4
)

type topoEntry struct {
	// advertised is kept sorted by id: route recomputation walks it, and
	// equal-cost tie-breaks must not depend on incidental ordering (the
	// sender serialized its selector map in map-iteration order).
	advertised []netstack.NodeID
	seq        uint32
	expiry     sim.Time
}

// forever is the expiry horizon of a computation that consumed no
// expirable inputs: it can never be invalidated by the clock alone.
const forever = sim.Time(math.MaxInt64)

// symNeighbor is one entry of the sorted symmetric-neighbor slice: the id
// plus the table entry, so rebuild loops never pay a map lookup.
type symNeighbor struct {
	id netstack.NodeID
	nb *rcommon.Neighbor
}

// Protocol is one node's OLSR instance.
type Protocol struct {
	netstack.BaseProtocol
	cfg  Config
	node *netstack.Node
	self netstack.NodeID

	// nbrs is the hello-liveness neighbor table: Touch on every HELLO,
	// Remove on link-layer failure, Expire from the periodic sweep.
	nbrs *rcommon.NeighborTable
	// symList mirrors the Sym entries of nbrs as a slice sorted by id,
	// maintained incrementally on symmetry flips and removals (and
	// rebuilt wholesale after the once-a-second expiry sweep). Entries
	// may be expired-but-unswept; consumers filter by Expiry.
	symList []symNeighbor
	mprs    map[netstack.NodeID]struct{}
	topo    map[netstack.NodeID]*topoEntry
	// topoHorizon lower-bounds every topo entry's expiry; the per-second
	// sweep skips scanning the map before it. handleTC lowers it on entry
	// writes, the sweep recomputes the exact minimum.
	topoHorizon sim.Time
	// seenTC suppresses duplicate TC floods.
	seenTC *rcommon.DupCache
	tcSeq  uint32

	helloBeacon rcommon.Beaconer
	tcBeacon    rcommon.Beaconer
	sweeper     rcommon.Beaconer

	routes map[netstack.NodeID]netstack.NodeID // dst -> next hop
	// seen is the route BFS's visited set and queue its FIFO, both reused
	// across rebuilds.
	seen  bitset
	queue []netstack.NodeID
	// liveSym is selectMPRs' scratch of live symmetric neighbors;
	// symBits/uncov its reusable membership bitsets over node ids.
	liveSym []symNeighbor
	symBits bitset
	uncov   bitset
	// Greedy-cover scratch: coverCnt[i] is candidate liveSym[i]'s count of
	// still-uncovered two-hop neighbors, kept exact by decrementing along
	// covHead/covNext/covOwner — per-two-hop-id chains of the candidate
	// indices covering that id. covHead is indexed by node id and cleared
	// lazily (only the slots of ids in play), so a selection run costs
	// O(two-hop entries), not O(max id).
	coverCnt []int32
	covHead  []int32
	covNext  []int32
	covOwner []int32
	chosen   []bool

	// linkVer counts structural changes to the route inputs (symmetric
	// links and TC-learned links); mprInVer counts structural changes to
	// the MPR inputs (symmetric links and two-hop key sets). Expiry
	// refreshes and content-identical re-advertisements bump neither.
	linkVer  uint64
	mprInVer uint64
	// routeVer/routeHorizon stamp the inputs of the last route rebuild;
	// mprVer/mprHorizon those of the last MPR selection. See the package
	// comment for the skip rule.
	routeVer     uint64
	routeHorizon sim.Time
	mprVer       uint64
	mprHorizon   sim.Time
	// mprDue marks that a trigger has asked for an MPR cover that has not
	// run yet, and mprDueAt is the instant of the latest such trigger; see
	// the package comment.
	mprDue   bool
	mprDueAt sim.Time
	// rebuilds/mprRuns count the computations that actually ran, for
	// tests and profiling; skips are the difference against dirty events.
	rebuilds uint64
	mprRuns  uint64

	dirty   bool
	started bool
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns an OLSR instance.
func New(cfg Config) *Protocol {
	return &Protocol{
		cfg:    cfg,
		nbrs:   rcommon.NewNeighborTable(),
		mprs:   make(map[netstack.NodeID]struct{}),
		topo:   make(map[netstack.NodeID]*topoEntry),
		seenTC: rcommon.NewDupCache(30 * time.Second),
		routes: make(map[netstack.NodeID]netstack.NodeID),
	}
}

// Attach implements netstack.Protocol.
func (p *Protocol) Attach(n *netstack.Node) {
	p.node = n
	p.self = n.ID()
}

// Start implements netstack.Protocol: kick off the periodic HELLO and TC
// schedules with initial jitter so nodes do not synchronize. Starting
// twice is a no-op.
func (p *Protocol) Start() {
	if p.started {
		return
	}
	p.started = true
	p.helloBeacon.Start(p.node, p.jitter(),
		func() sim.Time { return p.cfg.HelloInterval + p.jitter() }, p.sendHello)
	p.tcBeacon.Start(p.node, p.cfg.HelloInterval+p.jitter(),
		func() sim.Time { return p.cfg.TCInterval + p.jitter() }, p.sendTC)
	p.sweeper.StartEvery(p.node, time.Second, p.expire)
}

func (p *Protocol) jitter() sim.Time {
	return sim.Time(p.node.Rand().Int63n(int64(p.cfg.Jitter)))
}

// SuccessorsOf exposes the next hop for inspection.
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	p.recompute()
	if nh, ok := p.routes[dst]; ok {
		return []netstack.NodeID{nh}
	}
	return nil
}

// --- Symmetric-neighbor slice ------------------------------------------

// symInsert adds id to the sorted symmetric slice.
func (p *Protocol) symInsert(id netstack.NodeID, nb *rcommon.Neighbor) {
	i := sort.Search(len(p.symList), func(i int) bool { return p.symList[i].id >= id })
	if i < len(p.symList) && p.symList[i].id == id {
		p.symList[i].nb = nb
		return
	}
	p.symList = append(p.symList, symNeighbor{})
	copy(p.symList[i+1:], p.symList[i:])
	p.symList[i] = symNeighbor{id: id, nb: nb}
}

// symRemove drops id from the sorted symmetric slice, if present.
func (p *Protocol) symRemove(id netstack.NodeID) {
	i := sort.Search(len(p.symList), func(i int) bool { return p.symList[i].id >= id })
	if i >= len(p.symList) || p.symList[i].id != id {
		return
	}
	copy(p.symList[i:], p.symList[i+1:])
	p.symList = p.symList[:len(p.symList)-1]
}

// rebuildSymList re-derives the slice from the table after a bulk change
// (the once-a-second expiry sweep, which removes entries en masse).
func (p *Protocol) rebuildSymList() {
	p.symList = p.symList[:0]
	for id, nb := range p.nbrs.All() {
		if nb.Sym {
			p.symList = append(p.symList, symNeighbor{id: id, nb: nb})
		}
	}
	sort.Slice(p.symList, func(i, j int) bool { return p.symList[i].id < p.symList[j].id })
}

// --- Periodic control -------------------------------------------------

func (p *Protocol) sendHello() {
	h := p.helloMessage()
	p.node.BroadcastControl(helloBase+perAddr*(len(h.Neighbors)+len(h.MPRs)), h)
}

// helloMessage builds the HELLO this node would send now, first running
// any MPR cover that is due.
func (p *Protocol) helloMessage() *hello {
	p.flushMPRs()
	now := p.node.Now()
	var nbs, mprList []netstack.NodeID
	for id, nb := range p.nbrs.All() {
		// Both heard (asymmetric) and symmetric links are advertised;
		// hearing oneself in a HELLO is what upgrades a link to
		// symmetric, so asymmetric links must be included to
		// bootstrap.
		if nb.Expiry > now {
			nbs = append(nbs, id)
		}
	}
	// Sorted, so receivers can compare the list with the two-hop set they
	// stored from the previous HELLO in one lockstep walk.
	slices.Sort(nbs)
	for _, id := range nbs {
		if _, isMPR := p.mprs[id]; isMPR {
			mprList = append(mprList, id)
		}
	}
	return &hello{From: p.self, Neighbors: nbs, MPRs: mprList}
}

func (p *Protocol) sendTC() {
	// Only nodes selected as MPR by someone originate TCs.
	var selectors []netstack.NodeID
	now := p.node.Now()
	for id, nb := range p.nbrs.All() {
		if nb.Expiry > now && nb.SelectsMe {
			selectors = append(selectors, id) //slrlint:allow mapiter TC advertises the selector set; receivers fold it into a topology map
		}
	}
	if len(selectors) == 0 {
		return
	}
	p.tcSeq++
	m := &tc{Orig: p.self, Seq: p.tcSeq, Advertised: selectors, TTL: 35}
	p.seenTC.Mark(p.self, p.tcSeq, now)
	p.node.BroadcastControl(tcBase+perAddr*len(selectors), m)
}

func (p *Protocol) expire() {
	now := p.node.Now()
	if p.nbrs.Expire(now) {
		// The sweep removes neighbors in bulk; re-derive the symmetric
		// slice and invalidate both caches rather than attributing each
		// individual removal. Once a second, this is noise next to the
		// per-hello savings.
		p.dirty = true
		p.linkVer++
		p.mprInVer++
		p.rebuildSymList()
	}
	// The topology sweep is gated on the same horizon rule as the MPR and
	// route caches: topoHorizon lower-bounds every entry's expiry, so a
	// sweep before it provably removes nothing. Each real sweep recomputes
	// the exact minimum; entry writes in handleTC lower the bound.
	if now >= p.topoHorizon {
		min := forever
		for id, te := range p.topo {
			if te.expiry <= now {
				delete(p.topo, id)
				p.dirty = true
				p.linkVer++
			} else if te.expiry < min {
				min = te.expiry
			}
		}
		p.topoHorizon = min
	}
	p.seenTC.Sweep(now)
	if p.dirty {
		p.markMPRsDue()
	}
}

// RecvControl implements netstack.Protocol.
func (p *Protocol) RecvControl(from netstack.NodeID, msg any) {
	switch m := msg.(type) {
	case *hello:
		p.handleHello(from, m)
	case *tc:
		p.handleTC(from, m)
	}
}

func (p *Protocol) handleHello(from netstack.NodeID, h *hello) {
	now := p.node.Now()
	old, existed := p.nbrs.Get(from)
	// A live symmetric link before this hello; the hello's Touch always
	// leaves the entry live, so comparing against the recomputed Sym
	// below detects both symmetry flips and the revival of an
	// expired-but-unswept link — the two ways a hello can change which
	// links the next rebuild sees.
	wasLiveSym := existed && old.Sym && old.Expiry > now
	nb := p.nbrs.Touch(from, now+p.cfg.NeighborHold)
	// The link is symmetric once the neighbor lists us.
	sym := false
	for _, n := range h.Neighbors {
		if n == p.self {
			sym = true
			break
		}
	}
	if sym != nb.Sym {
		nb.Sym = sym
		if sym {
			p.symInsert(from, nb)
		} else {
			p.symRemove(from)
		}
	}
	if sym != wasLiveSym {
		p.linkVer++
		p.mprInVer++
	}
	nb.SelectsMe = false
	for _, n := range h.MPRs {
		if n == p.self {
			nb.SelectsMe = true
			break
		}
	}
	// Two-hop neighborhood from the neighbor's advertised set, which the
	// Touch above keeps alive for as long as the neighbor itself. HELLOs
	// list neighbors sorted by id and TwoHopList keeps that order, so one
	// lockstep walk tells whether the set changed. Only a changed set
	// invalidates the MPR cache.
	i := 0
	same := true
	for _, n := range h.Neighbors {
		if n == p.self {
			continue
		}
		if i == len(nb.TwoHopList) || nb.TwoHopList[i] != n {
			same = false
			break
		}
		i++
	}
	if !same || i != len(nb.TwoHopList) {
		nb.TwoHopList = nb.TwoHopList[:0]
		for _, n := range h.Neighbors {
			if n == p.self {
				continue
			}
			nb.TwoHopList = append(nb.TwoHopList, n)
			if n > nb.TwoHopMax {
				nb.TwoHopMax = n
			}
		}
		p.mprInVer++
	}
	p.dirty = true
	p.markMPRsDue()
}

func (p *Protocol) handleTC(from netstack.NodeID, m *tc) {
	if m.Orig == p.self {
		return
	}
	now := p.node.Now()
	if p.seenTC.Witness(m.Orig, m.Seq, now) {
		te, ok := p.topo[m.Orig]
		if !ok || !seqNewer(te.seq, m.Seq) {
			exp := now + p.cfg.TopologyHold
			if ok && te.expiry > now && sameAdvertised(te.advertised, m.Advertised) {
				// The re-advertisement names the same links and the old
				// entry is still live: refresh in place. No link appears
				// or disappears at any instant before the (previous)
				// horizon, so the route cache stays valid.
				te.seq = m.Seq
				te.expiry = exp
			} else {
				adv := append([]netstack.NodeID(nil), m.Advertised...)
				sort.Slice(adv, func(i, j int) bool { return adv[i] < adv[j] })
				if ok {
					te.advertised, te.seq, te.expiry = adv, m.Seq, exp
				} else {
					p.topo[m.Orig] = &topoEntry{advertised: adv, seq: m.Seq, expiry: exp}
				}
				p.linkVer++
			}
			if exp < p.topoHorizon {
				p.topoHorizon = exp
			}
			p.dirty = true
		}
		// MPR forwarding rule: relay only if the transmitter selected
		// this node as MPR.
		if nb, ok := p.nbrs.Get(from); ok && nb.SelectsMe && m.TTL > 1 {
			z := *m
			z.TTL--
			jit := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
			size := tcBase + perAddr*len(z.Advertised)
			p.node.After(jit, func() { p.node.BroadcastControl(size, &z) })
		}
	}
}

// sameAdvertised reports whether the sorted stored set and the unsorted
// incoming list name exactly the same nodes, without allocating.
func sameAdvertised(stored, incoming []netstack.NodeID) bool {
	if len(stored) != len(incoming) {
		return false
	}
	for _, n := range incoming {
		i := sort.Search(len(stored), func(i int) bool { return stored[i] >= n })
		if i >= len(stored) || stored[i] != n {
			return false
		}
	}
	return true
}

// seqNewer reports that stored is newer than incoming, via the shared
// wraparound comparison.
func seqNewer(stored, incoming uint32) bool { return rcommon.SeqGT(stored, incoming) }

// markMPRsDue records that the MPR inputs may have changed: the cover is
// owed, as of now, and runs at the next flushMPRs.
func (p *Protocol) markMPRsDue() {
	p.mprDue = true
	p.mprDueAt = p.node.Now()
}

// flushMPRs runs the owed MPR cover, if any, at the instant it became due.
// Callers must flush before reading the set or changing its inputs
// outside a trigger.
func (p *Protocol) flushMPRs() {
	if p.mprDue {
		p.mprDue = false
		p.selectMPRs(p.mprDueAt)
	}
}

// selectMPRs runs the greedy set cover of the strict two-hop neighborhood
// as of now — unless the one/two-hop neighborhood provably has not changed
// since the last run (unchanged structure version, now before the expiry
// horizon), in which case the cached set is already exactly what the cover
// would produce.
//
// The cover runs over bitsets indexed by node id and the flat TwoHopList
// sets: node ids are dense in every scenario, so membership is one
// shift+mask instead of a map probe, and the scratch bitsets are reused
// across runs. Cover counts are order-independent sums and the candidate
// scan walks liveSym in sorted id order, so the selected set is identical
// to a map-based cover's.
func (p *Protocol) selectMPRs(now sim.Time) {
	if p.mprVer == p.mprInVer && now < p.mprHorizon {
		return
	}
	p.mprRuns++
	horizon := forever
	p.liveSym = p.liveSym[:0]
	maxID := p.self
	for _, e := range p.symList {
		if e.nb.Expiry > now {
			p.liveSym = append(p.liveSym, e)
			if e.nb.Expiry < horizon {
				horizon = e.nb.Expiry
			}
			if e.id > maxID {
				maxID = e.id
			}
			if e.nb.TwoHopMax > maxID {
				maxID = e.nb.TwoHopMax
			}
		}
	}
	p.symBits.reset(int(maxID) + 1)
	p.uncov.reset(int(maxID) + 1)
	for _, e := range p.liveSym {
		p.symBits.set(e.id)
	}
	nCand := len(p.liveSym)
	p.coverCnt = resizeInt32(p.coverCnt, nCand)
	p.chosen = resizeBool(p.chosen, nCand)
	if len(p.covHead) < int(maxID)+1 {
		p.covHead = append(p.covHead, make([]int32, int(maxID)+1-len(p.covHead))...)
	}
	p.covNext = p.covNext[:0]
	p.covOwner = p.covOwner[:0]
	uncovered := 0
	// One pass builds the strict two-hop set (reachable through a
	// symmetric neighbor, not a symmetric neighbor itself, not self), the
	// per-candidate cover counts, and the per-two-hop chains of covering
	// candidates. Strict-set membership depends only on self and symBits
	// (both fixed here), so a candidate's count and a two-hop id's chain
	// are complete even though uncov is still being populated. A two-hop
	// id cleared during the rounds below was necessarily uncovered here
	// (uncov only shrinks), so its chain names exactly the candidates
	// whose counts must drop — the counts stay equal to the cover the
	// per-round rescan used to recompute, and the selection is identical.
	for i, e := range p.liveSym {
		cnt := int32(0)
		for _, th := range e.nb.TwoHopList {
			if th == p.self || p.symBits.has(th) {
				continue
			}
			if !p.uncov.has(th) {
				p.uncov.set(th)
				p.covHead[th] = -1
				uncovered++
			}
			p.covNext = append(p.covNext, p.covHead[th])
			p.covOwner = append(p.covOwner, int32(i))
			p.covHead[th] = int32(len(p.covNext) - 1)
			cnt++
		}
		p.coverCnt[i] = cnt
	}
	clear(p.mprs)
	for uncovered > 0 {
		best := -1
		bestCover := int32(0)
		for i, e := range p.liveSym {
			if p.chosen[i] {
				continue
			}
			cover := p.coverCnt[i]
			if cover > bestCover ||
				(cover == bestCover && cover > 0 && e.id < p.liveSym[best].id) {
				best, bestCover = i, cover
			}
		}
		if bestCover == 0 {
			break // remaining two-hops unreachable (stale info)
		}
		bestE := p.liveSym[best]
		p.chosen[best] = true
		p.mprs[bestE.id] = struct{}{}
		for _, th := range bestE.nb.TwoHopList {
			if p.uncov.has(th) {
				p.uncov.clearBit(th)
				uncovered--
				for k := p.covHead[th]; k >= 0; k = p.covNext[k] {
					p.coverCnt[p.covOwner[k]]--
				}
			}
		}
	}
	// Keep at least one MPR whenever a symmetric neighbor exists, so
	// every node is advertised in some TC and remains reachable from
	// beyond two hops. liveSym is sorted, so the first entry is the
	// lowest id.
	if len(p.mprs) == 0 && len(p.liveSym) > 0 {
		p.mprs[p.liveSym[0].id] = struct{}{}
	}
	p.mprVer = p.mprInVer
	p.mprHorizon = horizon
}

// resizeInt32 returns s with length n, reallocating only on growth; the
// contents are unspecified (callers overwrite every slot).
func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// resizeBool returns s with length n and every slot false.
func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitset is a reusable membership set over dense node ids.
type bitset []uint64

// reset sizes the set to hold ids in [0, n) and clears it, reallocating
// only when n outgrows the previous capacity.
func (b *bitset) reset(n int) {
	words := (n + 63) / 64
	if cap(*b) < words {
		*b = make(bitset, words)
		return
	}
	*b = (*b)[:words]
	clear(*b)
}

// add inserts i, growing the set if i lies past its end, and reports
// whether i was absent. Growth keeps the backing array, so a set sized by
// earlier use never allocates again.
func (b *bitset) add(i netstack.NodeID) bool {
	w := int(i >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	bit := uint64(1) << (uint(i) & 63)
	if (*b)[w]&bit != 0 {
		return false
	}
	(*b)[w] |= bit
	return true
}

func (b bitset) set(i netstack.NodeID)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clearBit(i netstack.NodeID) { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i netstack.NodeID) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// --- Routing table ----------------------------------------------------

// recompute rebuilds shortest paths over the link-state database (BFS on
// unit-cost links) — or proves it does not have to: with an unchanged
// structure version and the clock before the expiry horizon, the rebuild
// would consume exactly the inputs of the previous one.
func (p *Protocol) recompute() {
	if !p.dirty {
		return
	}
	now := p.node.Now()
	if p.routeVer == p.linkVer && now < p.routeHorizon {
		p.dirty = false
		return
	}
	p.dirty = false
	p.rebuilds++
	clear(p.routes)
	clear(p.seen)
	p.seen.add(p.self)
	horizon := forever

	// First ring: symmetric neighbors, visited in id order — the BFS
	// assigns each destination the first equal-cost route it reaches, so
	// tie-breaks must not depend on map iteration order (it varies across
	// goroutines, which would make trial results depend on the worker
	// count of the sweep runner). symList is maintained sorted, so no
	// per-rebuild sort.
	queue := p.queue[:0]
	for _, e := range p.symList {
		if e.nb.Expiry <= now {
			continue
		}
		queue = append(queue, e.id)
		p.routes[e.id] = e.id
		p.seen.add(e.id)
		if e.nb.Expiry < horizon {
			horizon = e.nb.Expiry
		}
	}
	// Expand over TC-advertised links, popping by head index (re-slicing
	// the queue would keep the whole backing array pinned and re-grow it
	// every rebuild).
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		te, ok := p.topo[cur]
		if !ok || te.expiry <= now {
			continue
		}
		if te.expiry < horizon {
			horizon = te.expiry
		}
		for _, adv := range te.advertised {
			if !p.seen.add(adv) {
				continue
			}
			p.routes[adv] = p.routes[cur]
			queue = append(queue, adv)
		}
	}
	p.queue = queue
	p.routeVer = p.linkVer
	p.routeHorizon = horizon
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) {
	p.recompute()
	nh, ok := p.routes[pkt.Dst]
	if !ok {
		p.node.DropData(pkt, rcommon.DropNoRoute)
		return
	}
	p.node.ForwardData(nh, pkt)
}

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	pkt.Hops++
	if pkt.Dst == p.self {
		p.node.DeliverLocal(pkt)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		p.node.DropData(pkt, rcommon.DropTTL)
		return
	}
	p.recompute()
	nh, ok := p.routes[pkt.Dst]
	if !ok {
		p.node.DropData(pkt, rcommon.DropNoRoute)
		return
	}
	p.node.ForwardData(nh, pkt)
}

// DataFailed implements netstack.Protocol: proactive OLSR has no reactive
// repair; the link will age out of the neighbor set. Drop the neighbor
// immediately to react a little faster, as link-layer feedback is enabled
// for all protocols in the evaluation.
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.removeNeighbor(to)
	p.markMPRsDue()
	p.node.DropData(pkt, rcommon.DropLinkLost)
}

// ControlFailed implements netstack.Protocol. Unlike DataFailed it does not
// trigger an MPR cover, so a cover owed from before the removal runs first,
// on the inputs it was owed for.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) {
	p.flushMPRs()
	p.removeNeighbor(to)
}

// removeNeighbor drops to from the neighbor table on link-layer failure
// evidence, invalidating the caches only if a live symmetric link actually
// disappeared (removing an asymmetric or already-expired entry changes no
// computation input).
func (p *Protocol) removeNeighbor(to netstack.NodeID) {
	if nb, ok := p.nbrs.Get(to); ok {
		if nb.Sym {
			p.symRemove(to)
			if nb.Expiry > p.node.Now() {
				p.linkVer++
				p.mprInVer++
			}
		}
		p.nbrs.Remove(to)
	}
	p.dirty = true
}
