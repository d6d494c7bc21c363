package mac

import (
	"testing"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/sim"
)

// countUpper counts deliveries without retaining payloads, so the bench
// measures the MAC and radio rather than the test's bookkeeping.
type countUpper struct{ delivered int }

func (u *countUpper) Deliver(radio.NodeID, any)    { u.delivered++ }
func (u *countUpper) SendFailed(radio.NodeID, any) {}
func (u *countUpper) SendOK(radio.NodeID, any)     {}

// benchPayload is a pointer, so passing it as `any` allocates nothing.
var benchPayload = &struct{}{}

// BenchmarkMACSteadyState measures the MAC → radio → OnFrame path: eight
// static stations in one collision domain (10 m apart, 100 m range) each
// queue one 512-byte payload per op, and the op drains the simulator.
// unicast sends to the next station (RTS/CTS/DATA/ACK); broadcast is one
// unacknowledged frame heard by the other seven. A warm-up round fills
// the event, job and reception pools first, so allocs/op is the steady
// state.
func BenchmarkMACSteadyState(b *testing.B) {
	for _, mode := range []struct {
		name      string
		broadcast bool
	}{{"unicast", false}, {"broadcast", true}} {
		b.Run(mode.name, func(b *testing.B) {
			const n = 8
			s := sim.New(1)
			p := radio.DefaultParams()
			p.Range = 100
			ch := radio.NewChannel(s, p)
			up := &countUpper{}
			macs := make([]*MAC, n)
			for i := range macs {
				macs[i] = New(s, ch, radio.NodeID(i), up)
				ch.Register(radio.NodeID(i), &mobility.Static{At: geo.Point{X: float64(10 * i)}}, macs[i])
			}
			round := func() {
				for i, m := range macs {
					if mode.broadcast {
						m.Broadcast(512, benchPayload)
					} else {
						m.Send(radio.NodeID((i+1)%n), 512, benchPayload)
					}
				}
				s.Run()
			}
			round()
			frames0, delivered0 := ch.Frames(), up.delivered
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
			b.StopTimer()
			b.ReportMetric(float64(ch.Frames()-frames0)/float64(b.N), "frames/op")
			b.ReportMetric(float64(up.delivered-delivered0)/float64(b.N), "delivered/op")
		})
	}
}
