package core

import (
	"errors"
	"testing"

	"slr/internal/frac"
	"slr/internal/label"
)

var fs = FracSet{}

func TestCheckOrder(t *testing.T) {
	half := frac.MustNew(1, 2)
	third := frac.MustNew(1, 3)
	twoThirds := frac.MustNew(2, 3)
	threeQuarters := frac.MustNew(3, 4)

	tests := []struct {
		name           string
		g, cur, m, adv frac.F
		smax           *frac.F
		wantErr        error
	}{
		{"valid relabel", half, twoThirds, twoThirds, third, nil, nil},
		{"valid with successors", half, twoThirds, twoThirds, third, &third, nil},
		{"greatest element rejected", frac.One, frac.One, frac.One, half, nil, ErrNotFinite},
		{"label increase rejected", threeQuarters, half, frac.One, third, nil, ErrPredecessorOrder},
		{"not below request min", twoThirds, twoThirds, half, third, nil, ErrRequestOrder},
		{"equal to request min", half, half, half, third, nil, ErrRequestOrder},
		{"infeasible advertisement", third, half, twoThirds, half, nil, ErrInfeasible},
		{"successor out of order", half, twoThirds, twoThirds, third, &twoThirds, ErrSuccessorOrder},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckOrder(fs, tt.g, tt.cur, tt.m, tt.adv, tt.smax)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("CheckOrder = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestChooseLabelKeepsCurrent(t *testing.T) {
	// Example 2, node G: cur=2/3, M=3/4, adv=5/8 -> keep 2/3.
	got, err := ChooseLabel(fs, frac.MustNew(2, 3), frac.MustNew(3, 4), frac.MustNew(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if got != frac.MustNew(2, 3) {
		t.Fatalf("got %v, want 2/3 (keep)", got)
	}
}

func TestChooseLabelSplits(t *testing.T) {
	// Example 2, node B: cur=2/3, M=2/3, adv=1/2 -> split to 3/5.
	got, err := ChooseLabel(fs, frac.MustNew(2, 3), frac.MustNew(2, 3), frac.MustNew(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != frac.MustNew(3, 5) {
		t.Fatalf("got %v, want 3/5 (split)", got)
	}
}

func TestChooseLabelNextElement(t *testing.T) {
	// Unassigned node with M=1/1 receiving adv 0/1 takes next-element 1/2.
	got, err := ChooseLabel(fs, frac.One, frac.One, frac.Zero)
	if err != nil {
		t.Fatal(err)
	}
	if got != frac.MustNew(1, 2) {
		t.Fatalf("got %v, want 1/2", got)
	}
}

func TestChooseLabelInfeasible(t *testing.T) {
	_, err := ChooseLabel(fs, frac.MustNew(1, 3), frac.One, frac.MustNew(1, 2))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestChooseLabelMaintainsOrderProperty(t *testing.T) {
	// Any successful ChooseLabel result must pass CheckOrder.
	cases := []struct{ cur, m, adv frac.F }{
		{frac.One, frac.One, frac.Zero},
		{frac.MustNew(2, 3), frac.MustNew(2, 3), frac.MustNew(1, 2)},
		{frac.MustNew(3, 4), frac.MustNew(2, 3), frac.MustNew(3, 5)},
		{frac.MustNew(2, 3), frac.MustNew(3, 4), frac.MustNew(5, 8)},
		{frac.MustNew(3, 4), frac.One, frac.MustNew(2, 3)},
		{frac.MustNew(7, 9), frac.MustNew(7, 9), frac.MustNew(3, 4)},
	}
	for _, c := range cases {
		g, err := ChooseLabel(fs, c.cur, c.m, c.adv)
		if err != nil {
			t.Errorf("ChooseLabel(%v,%v,%v) failed: %v", c.cur, c.m, c.adv, err)
			continue
		}
		// Eq. 4 is relaxed to G <= cur < M in the keep case; CheckOrder
		// demands G < M which keep also satisfies since cur < M there.
		if err := CheckOrder(fs, g, c.cur, c.m, c.adv, nil); err != nil {
			t.Errorf("ChooseLabel(%v,%v,%v) = %v violates order: %v", c.cur, c.m, c.adv, g, err)
		}
	}
}

func TestFareySetSplitsSimplest(t *testing.T) {
	fy := FareySet{}
	got, ok := fy.Split(frac.MustNew(1, 2), frac.MustNew(2, 3))
	if !ok || got != frac.MustNew(3, 5) {
		t.Fatalf("Farey split = %v, want 3/5", got)
	}
	// Unlike the mediant, Farey splits of wide intervals stay simple.
	got, ok = fy.Split(frac.MustNew(5, 8), frac.MustNew(7, 8))
	if !ok {
		t.Fatal("Farey split overflowed")
	}
	if got != frac.MustNew(2, 3) {
		t.Fatalf("Farey split = %v, want 2/3 (simplest in (5/8,7/8))", got)
	}
}

func TestOrderSetDirection(t *testing.T) {
	os := OrderSet{}
	dst := label.Destination(1)
	mid := label.Order{SN: 1, FD: frac.MustNew(1, 2)}
	if !os.Less(dst, mid) {
		t.Error("destination must be SLR-less than interior label")
	}
	if os.Less(mid, dst) {
		t.Error("interior label must not be below destination")
	}
	if !os.Less(mid, os.Greatest()) {
		t.Error("any assigned label must be below Unassigned")
	}
	// Fresher sequence number sits lower in the DAG.
	fresh := label.Order{SN: 2, FD: frac.MustNew(3, 4)}
	if !os.Less(fresh, mid) {
		t.Error("higher seqno must be SLR-less")
	}
	// Split must land strictly between in SLR order.
	m, ok := os.Split(dst, mid)
	if !ok {
		t.Fatal("OrderSet.Split failed")
	}
	if !os.Less(dst, m) || !os.Less(m, mid) {
		t.Fatalf("split %v not between %v and %v", m, dst, mid)
	}
	n, ok := os.Next(dst)
	if !ok || !os.Less(dst, n) {
		t.Fatalf("OrderSet.Next(%v) = %v not above", dst, n)
	}
}

func TestGraphRejectsLabelIncrease(t *testing.T) {
	g := NewGraph[frac.F](fs)
	if err := g.SetLabel(1, frac.MustNew(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLabel(1, frac.MustNew(2, 3)); err == nil {
		t.Fatal("label increase accepted")
	}
	// Equal and lower are fine.
	if err := g.SetLabel(1, frac.MustNew(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLabel(1, frac.MustNew(1, 3)); err != nil {
		t.Fatal(err)
	}
}

func TestGraphRejectsOutOfOrderEdge(t *testing.T) {
	g := NewGraph[frac.F](fs)
	mustSet(t, g, 1, frac.MustNew(1, 2))
	mustSet(t, g, 2, frac.MustNew(2, 3))
	if err := g.AddSuccessor(1, 2); err == nil {
		t.Fatal("edge to larger label accepted")
	}
	if err := g.AddSuccessor(2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphDetectsCycle(t *testing.T) {
	g := NewGraph[frac.F](fs)
	// Force edges in directly to simulate a corrupted state.
	g.succ = map[int]map[int]struct{}{
		1: {2: {}},
		2: {3: {}},
		3: {1: {}},
	}
	if err := g.Verify(); err == nil {
		t.Fatal("cycle not detected")
	}
}

// everyLessSet orders every pair of labels, so Verify's label check
// passes on any edge set and only its cycle search can reject a loop.
type everyLessSet struct{ FracSet }

func (everyLessSet) Less(frac.F, frac.F) bool { return true }

// TestGraphVerifyNamesCycle checks that Verify reports a loop along the
// successor edges, in edge direction.
func TestGraphVerifyNamesCycle(t *testing.T) {
	g := NewGraph[frac.F](everyLessSet{})
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 1}} {
		if err := g.AddSuccessor(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	const want = "routing loop: cycle [1 2 3 1]"
	if err := g.Verify(); err == nil || err.Error() != want {
		t.Fatalf("Verify = %v, want %q", err, want)
	}
}

func TestGraphVerifyCountsAndAccessors(t *testing.T) {
	g := NewGraph[frac.F](fs)
	mustSet(t, g, 1, frac.MustNew(1, 2))
	mustSet(t, g, 2, frac.MustNew(2, 3))
	if err := g.AddSuccessor(2, 1); err != nil {
		t.Fatal(err)
	}
	if got := g.Successors(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Successors = %v", got)
	}
	_ = g.Verify()
	_ = g.Verify()
	if g.Checks() != 2 {
		t.Fatalf("Checks = %d, want 2", g.Checks())
	}
	g.RemoveSuccessor(2, 1)
	if got := g.Successors(2); len(got) != 0 {
		t.Fatalf("Successors after remove = %v", got)
	}
}

func mustSet(t *testing.T, g *Graph[frac.F], n int, f frac.F) {
	t.Helper()
	if err := g.SetLabel(n, f); err != nil {
		t.Fatal(err)
	}
}
