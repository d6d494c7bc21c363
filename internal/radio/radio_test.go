package radio

import (
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

type recorder struct {
	frames []*Frame
}

func (r *recorder) OnFrame(f *Frame) { r.frames = append(r.frames, f) }

// build places stations at the given x coordinates (y = 0) on a channel
// with 100 m range.
func build(t *testing.T, xs ...float64) (*sim.Simulator, *Channel, []*recorder) {
	t.Helper()
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	ch := NewChannel(s, p)
	recs := make([]*recorder, len(xs))
	for i, x := range xs {
		recs[i] = &recorder{}
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recs[i])
	}
	return s, ch, recs
}

func TestUnicastInRange(t *testing.T) {
	s, ch, recs := build(t, 0, 50, 250)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[1].frames) != 1 {
		t.Fatalf("node 1 got %d frames, want 1", len(recs[1].frames))
	}
	// Node 2 is out of range (250 > 100) and hears nothing.
	if len(recs[2].frames) != 0 {
		t.Fatalf("node 2 got %d frames, want 0", len(recs[2].frames))
	}
	// Sender does not hear itself.
	if len(recs[0].frames) != 0 {
		t.Fatalf("node 0 got %d frames, want 0", len(recs[0].frames))
	}
}

func TestOverhearing(t *testing.T) {
	// All frames in range are decodable, even if addressed elsewhere;
	// filtering is the MAC's job.
	s, ch, recs := build(t, 0, 50, 90)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[2].frames) != 1 {
		t.Fatalf("node 2 overheard %d frames, want 1", len(recs[2].frames))
	}
}

func TestCollisionAtReceiver(t *testing.T) {
	// Hidden terminal: 0 and 2 cannot hear each other but both reach 1.
	s, ch, recs := build(t, 0, 90, 180)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %d frames during collision, want 0", len(recs[1].frames))
	}
	if ch.Collisions() == 0 {
		t.Fatal("collision counter did not increase")
	}
}

func TestPartialOverlapCorrupts(t *testing.T) {
	s, ch, recs := build(t, 0, 90, 180)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 1000})
	// Second frame starts mid-way through the first.
	s.After(ch.AirTime(1000)/2, func() {
		ch.Transmit(&Frame{From: 2, To: 1, Kind: Data, Size: 50})
	})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %d frames, want 0 (partial overlap)", len(recs[1].frames))
	}
}

func TestSequentialFramesBothDecoded(t *testing.T) {
	s, ch, recs := build(t, 0, 50)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100, Seq: 1})
	s.After(ch.AirTime(100)+time.Millisecond, func() {
		ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100, Seq: 2})
	})
	s.Run()
	if len(recs[1].frames) != 2 {
		t.Fatalf("node 1 decoded %d frames, want 2", len(recs[1].frames))
	}
	if recs[1].frames[0].Seq != 1 || recs[1].frames[1].Seq != 2 {
		t.Fatal("frames out of order")
	}
}

func TestHalfDuplex(t *testing.T) {
	// Node 1 starts transmitting, then node 0's frame arrives: node 1
	// cannot decode it.
	s, ch, recs := build(t, 0, 50)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 2000})
	s.After(time.Microsecond, func() {
		ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 50})
	})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("transmitting node decoded %d frames, want 0", len(recs[1].frames))
	}
}

func TestBusyAndIdleAt(t *testing.T) {
	s, ch, _ := build(t, 0, 50)
	if ch.Busy(1) {
		t.Fatal("channel busy before any transmission")
	}
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	if !ch.Busy(1) {
		t.Fatal("receiver does not sense carrier")
	}
	if !ch.Busy(0) {
		t.Fatal("transmitter does not sense itself busy")
	}
	idle := ch.IdleAt(1)
	if idle != ch.AirTime(100) {
		t.Fatalf("IdleAt = %v, want %v", idle, ch.AirTime(100))
	}
	s.Run()
	if ch.Busy(1) {
		t.Fatal("channel busy after run drained")
	}
}

func TestAirTimeScalesWithSize(t *testing.T) {
	_, ch, _ := build(t, 0)
	small, big := ch.AirTime(100), ch.AirTime(1000)
	if big <= small {
		t.Fatalf("AirTime(1000)=%v not greater than AirTime(100)=%v", big, small)
	}
	// 512-byte frame at 2 Mbps is ~2.05 ms + 192 us preamble.
	at := ch.AirTime(512)
	want := 192*time.Microsecond + 2048*time.Microsecond
	if at != want {
		t.Fatalf("AirTime(512) = %v, want %v", at, want)
	}
}

func TestNeighborsTracksMobility(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	ch := NewChannel(s, p)
	ch.Register(0, &mobility.Static{At: geo.Point{}}, &recorder{})
	mover := mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: geo.Point{X: 50}},
		{At: 10 * time.Second, Pos: geo.Point{X: 500}},
	})
	ch.Register(1, mover, &recorder{})
	if nb := ch.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("Neighbors at t=0: %v, want [1]", nb)
	}
	s.At(10*time.Second, func() {
		if nb := ch.Neighbors(0); len(nb) != 0 {
			t.Errorf("Neighbors at t=10s: %v, want none", nb)
		}
	})
	s.Run()
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	s := sim.New(1)
	ch := NewChannel(s, DefaultParams())
	ch.Register(0, &mobility.Static{}, &recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	ch.Register(0, &mobility.Static{}, &recorder{})
}

func TestFramesCounter(t *testing.T) {
	s, ch, _ := build(t, 0, 50)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 10})
	s.Run()
	if ch.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", ch.Frames())
	}
}

func TestCaptureNearSenderWins(t *testing.T) {
	// Receiver at 0; near sender at 30 m, far interferer at 90 m:
	// 90/30 = 3 >= 1.78, the near frame captures.
	s, ch, recs := build(t, 0, 30, 90)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100, Seq: 1})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100, Seq: 2})
	s.Run()
	if len(recs[0].frames) != 1 || recs[0].frames[0].Seq != 1 {
		t.Fatalf("capture failed: got %v", recs[0].frames)
	}
}

func TestNoCaptureAtSimilarDistance(t *testing.T) {
	// Senders at 50 and 60 m: 60/50 = 1.2 < 1.78, both corrupted.
	s, ch, recs := build(t, 0, 50, 60)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100})
	s.Run()
	if len(recs[0].frames) != 0 {
		t.Fatalf("similar-distance overlap decoded: %v", recs[0].frames)
	}
}

func TestCaptureDisabled(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	p.CaptureRatio = 0
	ch := NewChannel(s, p)
	recs := []*recorder{{}, {}, {}}
	for i, x := range []float64{0, 30, 90} {
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recs[i])
	}
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100})
	s.Run()
	if len(recs[0].frames) != 0 {
		t.Fatalf("capture disabled but frame decoded: %v", recs[0].frames)
	}
}

// relay records its frames and, on a frame with Seq trigger, transmits
// reply from inside OnFrame: at the instant that frame ends.
type relay struct {
	recorder
	ch      *Channel
	trigger uint32
	reply   *Frame
}

func (r *relay) OnFrame(f *Frame) {
	r.recorder.OnFrame(f)
	if f.Seq == r.trigger {
		r.ch.Transmit(r.reply)
	}
}

func seqs(fs []*Frame) []uint32 {
	out := make([]uint32, 0, len(fs))
	for _, f := range fs {
		out = append(out, f.Seq)
	}
	return out
}

// TestTransmitAtEndInstant: a receiver whose OnFrame transmits at the
// instant a frame ends. The frame's receptions end in registration order,
// so receivers registered before the relay have already decoded it, and
// those after it that hear the relay are still receiving and get
// corrupted, exactly as with one end event per receiver.
func TestTransmitAtEndInstant(t *testing.T) {
	// Range 100 m, capture ratio 1.78. Registration order and x:
	//   0 sender x=0, 1 early x=60, 2 relay x=40, 3 late x=80, 4 far x=-90.
	// Frame 1 from 0 is heard by 1, 2, 3 and 4 (all within 100 m of 0).
	// At its end, 2 decodes it and sends frame 2, heard by 0 (40 m),
	// 1 (20 m) and 3 (40 m); 4 is 130 m from 2.
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	ch := NewChannel(s, p)
	rl := &relay{ch: ch, trigger: 1, reply: &Frame{From: 2, To: Broadcast, Kind: Data, Size: 100, Seq: 2}}
	recs := []*recorder{{}, {}, &rl.recorder, {}, {}}
	recvs := []Receiver{recs[0], recs[1], rl, recs[3], recs[4]}
	for i, x := range []float64{0, 60, 40, 80, -90} {
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recvs[i])
	}
	ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100, Seq: 1})
	s.Run()

	// Expected by hand:
	//   - 1 ended frame 1 before 2 transmitted: decodes 1, then 2.
	//   - 2 decodes frame 1 and does not hear its own frame 2.
	//   - 3 is still receiving frame 1 (sender 80 m away) when frame 2
	//     (sender 40 m away) starts: 40 < 1.78·80, so frame 1 is
	//     corrupted (one collision); 80 >= 1.78·40 = 71.2, so frame 2
	//     captures and is decoded.
	//   - 4 is out of 2's range and decodes frame 1.
	//   - 0 finished sending frame 1 at the instant frame 2 starts, so it
	//     decodes frame 2.
	want := [][]uint32{{2}, {1, 2}, {1}, {2}, {1}}
	for i, w := range want {
		if got := seqs(recs[i].frames); !slices.Equal(got, w) {
			t.Errorf("node %d decoded seqs %v, want %v", i, got, w)
		}
	}
	if got := ch.Collisions(); got != 1 {
		t.Errorf("Collisions = %d, want 1", got)
	}
	if got := ch.Frames(); got != 2 {
		t.Errorf("Frames = %d, want 2", got)
	}
}

func TestUnheardTransmitSchedulesNothing(t *testing.T) {
	s, ch, _ := build(t, 0, 500)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	if n := s.Pending(); n != 0 {
		t.Fatalf("Pending = %d after a transmission nobody hears, want 0", n)
	}
	if ch.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", ch.Frames())
	}
}

type countRecv struct{ n int }

func (c *countRecv) OnFrame(*Frame) { c.n++ }

// TestTransmitAllocFree pins a steady-state transmission and its drain
// at zero allocations: receptions and end-of-transmission events come
// from the channel's pools.
func TestTransmitAllocFree(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	ch := NewChannel(s, p)
	cnt := &countRecv{}
	for i, x := range []float64{0, 50, 90} {
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, cnt)
	}
	f := &Frame{From: 0, To: Broadcast, Kind: Data, Size: 100}
	step := ch.AirTime(f.Size) + time.Millisecond
	allocs := testing.AllocsPerRun(100, func() {
		ch.Transmit(f)
		s.RunUntil(s.Now() + step)
	})
	if allocs != 0 {
		t.Fatalf("Transmit + drain allocates %.1f times per frame, want 0", allocs)
	}
	if cnt.n != 2*101 {
		t.Fatalf("decoded %d frames, want %d", cnt.n, 2*101)
	}
}
