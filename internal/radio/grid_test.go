package radio

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// logRecorder records (time, sender, seq) per decoded frame so two channel
// runs can be compared event for event.
type logRecorder struct {
	s   *sim.Simulator
	log []string
}

func (l *logRecorder) OnFrame(f *Frame) {
	l.log = append(l.log, fmt.Sprintf("%d %d %d", l.s.Now(), f.From, f.Seq))
}

// buildMobile registers n waypoint stations (seeded per node) on a channel
// with the given params and returns per-station logs.
func buildMobile(s *sim.Simulator, p Params, n int, terrain geo.Terrain, maxSpeed float64) (*Channel, []*logRecorder) {
	ch := NewChannel(s, p)
	recs := make([]*logRecorder, n)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		m := mobility.NewWaypoint(terrain, rng, 1, maxSpeed, 0)
		recs[i] = &logRecorder{s: s}
		ch.Register(NodeID(i), m, recs[i])
	}
	return ch, recs
}

// driveRandomTraffic schedules transmissions from random senders at random
// times over dur, all derived from one seeded rng.
func driveRandomTraffic(s *sim.Simulator, ch *Channel, n int, dur sim.Time, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 600; i++ {
		at := sim.Time(rng.Int63n(int64(dur)))
		from := NodeID(rng.Intn(n))
		seq := uint32(i)
		s.At(at, func() {
			ch.Transmit(&Frame{From: from, To: Broadcast, Kind: Data, Size: 128, Seq: seq})
		})
	}
}

// runIndexed runs one randomized mobile broadcast workload under the given
// index kind and propagation, returning all reception logs plus counters.
func runIndexed(t *testing.T, kind IndexKind, prop PropSpec, n int, seed int64) ([][]string, uint64, uint64) {
	t.Helper()
	s := sim.New(seed)
	p := DefaultParams()
	p.Range = 250
	p.MaxSpeed = 25
	p.Index = kind
	p.Propagation = prop
	p.Seed = seed
	terrain := geo.Terrain{Width: 1500, Height: 900}
	ch, recs := buildMobile(s, p, n, terrain, p.MaxSpeed)
	if kind == IndexGrid && ch.grid == nil {
		t.Fatal("IndexGrid did not build a grid")
	}
	if kind == IndexLinear && ch.grid != nil {
		t.Fatal("IndexLinear built a grid")
	}
	driveRandomTraffic(s, ch, n, 600*time.Second, seed+7)
	s.Run()
	logs := make([][]string, n)
	for i, r := range recs {
		logs[i] = r.log
	}
	return logs, ch.Frames(), ch.Collisions()
}

// TestGridMatchesLinear is the regression test for the acceptance
// criterion: the grid-indexed channel must produce byte-identical
// reception logs and counters to the linear scan for identical seeds, for
// every propagation model.
func TestGridMatchesLinear(t *testing.T) {
	for _, prop := range []PropSpec{
		{},
		{Model: "shadowing"},
		{Model: "rayleigh"},
	} {
		name := prop.Model
		if name == "" {
			name = "unit-disk"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				lin, linFrames, linColl := runIndexed(t, IndexLinear, prop, 60, seed)
				grd, grdFrames, grdColl := runIndexed(t, IndexGrid, prop, 60, seed)
				if linFrames != grdFrames {
					t.Fatalf("seed %d: frames %d vs %d", seed, linFrames, grdFrames)
				}
				if linColl != grdColl {
					t.Fatalf("seed %d: collisions %d vs %d", seed, linColl, grdColl)
				}
				if !reflect.DeepEqual(lin, grd) {
					for i := range lin {
						if !reflect.DeepEqual(lin[i], grd[i]) {
							t.Fatalf("seed %d: station %d logs diverge:\nlinear: %v\ngrid:   %v",
								seed, i, lin[i], grd[i])
						}
					}
					t.Fatalf("seed %d: logs diverge", seed)
				}
			}
		})
	}
}

// TestAutoIndexSelection verifies IndexAuto picks the grid exactly when a
// speed bound is known.
func TestAutoIndexSelection(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	if ch := NewChannel(s, p); ch.grid != nil {
		t.Fatal("auto index built a grid with no speed bound")
	}
	p.MaxSpeed = 20
	if ch := NewChannel(s, p); ch.grid == nil {
		t.Fatal("auto index skipped the grid despite a speed bound")
	}
}

// TestGridNeighborsMatchesLinear verifies the Neighbors query agrees
// between index kinds as stations move.
func TestGridNeighborsMatchesLinear(t *testing.T) {
	const n = 40
	terrain := geo.Terrain{Width: 1200, Height: 800}
	mk := func(kind IndexKind) (*sim.Simulator, *Channel) {
		s := sim.New(1)
		p := DefaultParams()
		p.Range = 250
		p.MaxSpeed = 25
		p.Index = kind
		ch, _ := buildMobile(s, p, n, terrain, p.MaxSpeed)
		return s, ch
	}
	ls, lch := mk(IndexLinear)
	gs, gch := mk(IndexGrid)
	for step := 0; step < 40; step++ {
		at := sim.Time(step) * 10 * time.Second
		ls.RunUntil(at)
		gs.RunUntil(at)
		for id := 0; id < n; id++ {
			lnb := lch.Neighbors(NodeID(id))
			gnb := gch.Neighbors(NodeID(id))
			if !reflect.DeepEqual(lnb, gnb) {
				t.Fatalf("t=%v node %d: linear %v vs grid %v", at, id, lnb, gnb)
			}
		}
	}
}

// TestGridLateRegistrationMatchesLinear verifies stations registered
// after the simulation has been running (several refresh epochs deep) are
// still refreshed correctly: the late insert must join the bulk refresh
// pass, or it silently drifts past the slack bound.
func TestGridLateRegistrationMatchesLinear(t *testing.T) {
	const n, late = 40, 10
	terrain := geo.Terrain{Width: 1500, Height: 900}
	runOne := func(kind IndexKind) [][]string {
		s := sim.New(1)
		p := DefaultParams()
		p.Range = 250
		p.MaxSpeed = 25
		p.Index = kind
		ch, recs := buildMobile(s, p, n, terrain, p.MaxSpeed)
		// Burn through refresh epochs with traffic, then register the
		// late cohort.
		driveRandomTraffic(s, ch, n, 200*time.Second, 5)
		lateRecs := make([]*logRecorder, late)
		s.At(100*time.Second, func() {
			for i := 0; i < late; i++ {
				rng := rand.New(rand.NewSource(int64(5000 + i)))
				m := mobility.NewWaypoint(terrain, rng, 1, p.MaxSpeed, 0)
				lateRecs[i] = &logRecorder{s: s}
				ch.Register(NodeID(n+i), m, lateRecs[i])
			}
		})
		// Traffic that reaches the late cohort.
		rng := rand.New(rand.NewSource(6))
		for i := 0; i < 300; i++ {
			at := 100*time.Second + sim.Time(rng.Int63n(int64(300*time.Second)))
			from := NodeID(rng.Intn(n + late))
			seq := uint32(10000 + i)
			s.At(at, func() {
				ch.Transmit(&Frame{From: from, To: Broadcast, Kind: Data, Size: 128, Seq: seq})
			})
		}
		s.Run()
		logs := make([][]string, 0, n+late)
		for _, r := range append(recs, lateRecs...) {
			logs = append(logs, r.log)
		}
		return logs
	}
	lin, grd := runOne(IndexLinear), runOne(IndexGrid)
	if !reflect.DeepEqual(lin, grd) {
		t.Fatal("late-registration logs diverge between linear and grid")
	}
}

// TestGridStaticStations verifies the grid works with MaxSpeed 0 under
// IndexGrid: no refresh machinery, exact lookups.
func TestGridStaticStations(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	p.Index = IndexGrid
	ch := NewChannel(s, p)
	recs := make([]*logRecorder, 3)
	for i, x := range []float64{0, 50, 250} {
		recs[i] = &logRecorder{s: s}
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recs[i])
	}
	ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100, Seq: 9})
	s.Run()
	if len(recs[1].log) != 1 {
		t.Fatalf("in-range station decoded %d frames, want 1", len(recs[1].log))
	}
	if len(recs[2].log) != 0 {
		t.Fatalf("out-of-range station decoded %d frames, want 0", len(recs[2].log))
	}
}

// lineMover moves along the x axis at a constant velocity.
type lineMover struct {
	x0, vx float64 // start position (m) and velocity (m/s)
}

func (m lineMover) Position(at sim.Time) geo.Point {
	return geo.Point{X: m.x0 + m.vx*at.Seconds()}
}

// TestNeighbourListEpochBounds pins the two bounds a neighbour list must
// respect for the whole epoch it was built in. In each case station 0
// sends a frame that builds its list, then sends another before the epoch
// ends, which station 1 must decode under both index kinds.
func TestNeighbourListEpochBounds(t *testing.T) {
	const rng, speed = 100.0, 10.0
	slack := rng * gridSlackFraction
	for _, tc := range []struct {
		name string
		// setup registers the stations and schedules the transmissions
		// on a channel whose first frame goes out at t=0.
		setup func(s *sim.Simulator, ch *Channel, recv Receiver, send func(seq uint32))
	}{
		{
			// Two stations approaching at MaxSpeed each start the epoch
			// just inside range + 2·slack and end it inside range: the
			// list must budget for both ends' drift.
			name: "margin",
			setup: func(s *sim.Simulator, ch *Channel, recv Receiver, send func(seq uint32)) {
				const delta = 1e-3
				ch.Register(0, lineMover{x0: 0, vx: speed}, nil)
				ch.Register(1, lineMover{x0: rng + 2*slack - delta, vx: -speed}, recv)
				s.At(0, func() {
					send(1)
					end := sim.Time(slack / speed * float64(time.Second))
					if ch.grid != nil {
						end = ch.grid.nextRefresh
					}
					s.At(end-1, func() { send(2) })
				})
			},
		},
		{
			// A station registered beside a sender mid-epoch, after the
			// sender built its list, must hear the sender's next frame
			// (the epoch lasts slack / speed = 2.5 s).
			name: "late-registration",
			setup: func(s *sim.Simulator, ch *Channel, recv Receiver, send func(seq uint32)) {
				ch.Register(0, &mobility.Static{}, nil)
				s.At(0, func() { send(1) })
				s.At(time.Second, func() {
					ch.Register(1, &mobility.Static{At: geo.Point{X: 10}}, recv)
				})
				s.At(2*time.Second, func() { send(2) })
			},
		},
	} {
		for _, kind := range []IndexKind{IndexLinear, IndexGrid} {
			s := sim.New(1)
			p := DefaultParams()
			p.Range = rng
			p.MaxSpeed = speed
			p.Index = kind
			ch := NewChannel(s, p)
			recv := &logRecorder{s: s}
			tc.setup(s, ch, recv, func(seq uint32) {
				ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 64, Seq: seq})
			})
			s.Run()
			if n := len(recv.log); n != 1 || !strings.HasSuffix(recv.log[0], " 0 2") {
				t.Errorf("%s, index %d: station 1 decoded %v, want only frame 2 from station 0",
					tc.name, kind, recv.log)
			}
		}
	}
}
