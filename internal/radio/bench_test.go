package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// benchProps are the propagation models the channel benches run under:
// unit-disk, whose LinkRange is a constant, and shadowing as configured in
// the manhattan-500 example scenario, whose LinkRange is a Box–Muller draw
// plus a Pow.
var benchProps = []struct {
	name string
	spec PropSpec
}{
	{"unit-disk", PropSpec{}},
	{"shadowing", PropSpec{Model: "shadowing", Params: map[string]float64{"sigma_db": 4, "pathloss_exp": 3}}},
}

// benchChannel measures Transmit cost (audible-set lookup plus reception
// bookkeeping) for n mobile stations under the given index kind and
// propagation, on the 3000x3000 m terrain of the 500-node example
// scenarios. The ratio of the linear and grid variants at the same N is
// the speedup of the neighbour lists over the reference scan.
func benchChannel(b *testing.B, n int, kind IndexKind, prop PropSpec) {
	s := sim.New(1)
	p := DefaultParams()
	p.MaxSpeed = 20
	p.Index = kind
	p.Propagation = prop
	p.Seed = 1
	terrain := geo.Terrain{Width: 3000, Height: 3000}
	ch := NewChannel(s, p)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		ch.Register(NodeID(i), mobility.NewWaypoint(terrain, rng, 1, p.MaxSpeed, 0), nil)
	}
	f := &Frame{To: Broadcast, Kind: Data, Size: 64}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.From = NodeID(i % n)
		ch.Transmit(f)
		// Advance past the frame so receptions drain and stations move:
		// epochs keep expiring and lists keep being rebuilt, as in a
		// real run.
		s.RunUntil(s.Now() + 2*time.Millisecond)
	}
}

func BenchmarkChannelTransmit(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    IndexKind
	}{{"linear", IndexLinear}, {"grid", IndexGrid}} {
		for _, prop := range benchProps {
			for _, n := range []int{100, 500, 1000} {
				b.Run(fmt.Sprintf("%s/%s/N=%d", kind.name, prop.name, n), func(b *testing.B) {
					benchChannel(b, n, kind.k, prop.spec)
				})
			}
		}
	}
}

// BenchmarkChannelTransmitLargeN checks that the grid's per-epoch costs
// (the bulk position refresh and the neighbour-list builds) stay amortized
// at the large-N tier: per-transmit cost must stay near the N=1000 grid
// numbers rather than growing with N. Only the grid index runs here — the
// linear baseline at N=5000 is exactly the quadratic blowup the tier
// exists to avoid.
func BenchmarkChannelTransmitLargeN(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		b.Run(fmt.Sprintf("grid/N=%d", n), func(b *testing.B) {
			benchChannel(b, n, IndexGrid, PropSpec{})
		})
	}
}
