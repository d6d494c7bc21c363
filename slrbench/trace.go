package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"slr/internal/geo"
	"slr/internal/metrics"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// span names one wrapped layer boundary.
type span int

const (
	spanLinkRange   span = iota // radio.Propagation.LinkRange
	spanPosition                // mobility.Model.Position
	spanRx                      // radio.Receiver.OnFrame (the MAC)
	spanSend                    // traffic.Sender.SendData (netstack.Node)
	spanOriginate               // netstack.Protocol.OriginateData
	spanRecvData                // netstack.Protocol.RecvData
	spanRecvControl             // netstack.Protocol.RecvControl
	spanDataFailed              // netstack.Protocol.DataFailed
	numSpans
)

// tracer aggregates spans of one or more trials. Spans nest: a span's self
// time is its duration minus the time its wrapped child spans cover. Spans
// are folded into per-boundary totals as they close rather than kept,
// because the hot boundaries close millions of times per trial.
type tracer struct {
	calls [numSpans]uint64
	self  [numSpans]time.Duration
	open  []openSpan
}

type openSpan struct {
	s     span
	start time.Time
	child time.Duration
}

func (t *tracer) begin(s span) {
	t.open = append(t.open, openSpan{s: s, start: now()})
}

func (t *tracer) end() {
	o := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	d := now().Sub(o.start)
	t.calls[o.s]++
	t.self[o.s] += d - o.child
	if n := len(t.open); n > 0 {
		t.open[n-1].child += d
	}
}

// tracePrefix marks the registry entries of the timing wrappers; the
// wrapped entry keeps its own name after the prefix.
const tracePrefix = "trace-"

// active is the tracer the wrapper factories bind new wrappers to; wire
// sets it while it builds one trial's stack. Traced trials run one after
// another on one goroutine.
var (
	active       *tracer
	registerOnce sync.Once
)

// registerWrappers adds a timing wrapper under tracePrefix+name for every
// registered protocol, mobility model and propagation model. Each wrapper
// builds the wrapped entry through the public registry and forwards to it.
func registerWrappers() {
	registerOnce.Do(func() {
		for _, name := range routing.Protocols() {
			name := name
			routing.Register(strings.ToUpper(tracePrefix+name), func(params map[string]float64) (netstack.Protocol, error) {
				in, err := routing.Build(routing.Spec{Name: name, Params: params})
				if err != nil {
					return nil, err
				}
				return wrapProtocol(in, active)
			})
		}
		for _, name := range mobility.Models() {
			name := name
			mobility.Register(tracePrefix+name, func(t geo.Terrain, rng *rand.Rand, s mobility.Spec) (mobility.Model, error) {
				s.Model = name
				in, err := mobility.Build(t, rng, s)
				if err != nil {
					return nil, err
				}
				return &tracedMobility{in: in, t: active}, nil
			})
		}
		for _, name := range radio.PropagationModels() {
			name := name
			radio.RegisterPropagation(tracePrefix+name, func(p radio.Params, s radio.PropSpec) (radio.Propagation, error) {
				s.Model = name
				p.Propagation = s
				in, err := radio.NewPropagation(p)
				if err != nil {
					return nil, err
				}
				return &tracedPropagation{in: in, t: active}, nil
			})
		}
	})
}

type tracedMobility struct {
	in mobility.Model
	t  *tracer
}

func (m *tracedMobility) Position(at sim.Time) geo.Point {
	m.t.begin(spanPosition)
	p := m.in.Position(at)
	m.t.end()
	return p
}

type tracedPropagation struct {
	in radio.Propagation
	t  *tracer
}

func (p *tracedPropagation) MaxRange() float64 { return p.in.MaxRange() }

func (p *tracedPropagation) LinkRange(a, b radio.NodeID) float64 {
	p.t.begin(spanLinkRange)
	r := p.in.LinkRange(a, b)
	p.t.end()
	return r
}

type tracedReceiver struct {
	in radio.Receiver
	t  *tracer
}

func (r *tracedReceiver) OnFrame(f *radio.Frame) {
	r.t.begin(spanRx)
	r.in.OnFrame(f)
	r.t.end()
}

type tracedSender struct {
	in traffic.Sender
	t  *tracer
}

func (s *tracedSender) ID() netstack.NodeID { return s.in.ID() }

func (s *tracedSender) SendData(pkt *netstack.DataPacket) {
	s.t.begin(spanSend)
	s.in.SendData(pkt)
	s.t.end()
}

// The optional protocol interfaces scenario.Run looks for, plus SRP's
// fraction-denominator report.
type (
	seqnoReporter   interface{ SeqnoDelta() uint64 }
	controlReporter interface {
		ControlBreakdown() (rreq, rrep, rerr uint64)
	}
	successorLister interface {
		SuccessorsOf(dst netstack.NodeID) []netstack.NodeID
	}
	denomReporter interface{ MaxDenominator() uint32 }
)

// tracedProtocol times the routing entry points the stack calls. The
// variants below add exactly the optional interfaces the wrapped protocol
// has, so code probing for them sees what it would see unwrapped.
type tracedProtocol struct {
	in netstack.Protocol
	t  *tracer
}

func (p *tracedProtocol) Attach(n *netstack.Node) { p.in.Attach(n) }
func (p *tracedProtocol) Start()                  { p.in.Start() }

func (p *tracedProtocol) OriginateData(pkt *netstack.DataPacket) {
	p.t.begin(spanOriginate)
	p.in.OriginateData(pkt)
	p.t.end()
}

func (p *tracedProtocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	p.t.begin(spanRecvData)
	p.in.RecvData(from, pkt)
	p.t.end()
}

func (p *tracedProtocol) RecvControl(from netstack.NodeID, msg any) {
	p.t.begin(spanRecvControl)
	p.in.RecvControl(from, msg)
	p.t.end()
}

func (p *tracedProtocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.t.begin(spanDataFailed)
	p.in.DataFailed(to, pkt)
	p.t.end()
}

func (p *tracedProtocol) DataAcked(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.in.DataAcked(to, pkt)
}

func (p *tracedProtocol) ControlFailed(to netstack.NodeID, msg any) { p.in.ControlFailed(to, msg) }

// withSuccessors is the DSR/OLSR shape.
type withSuccessors struct{ *tracedProtocol }

func (p withSuccessors) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	return p.in.(successorLister).SuccessorsOf(dst)
}

// withSeqno is the LDR/AODV shape.
type withSeqno struct{ withSuccessors }

func (p withSeqno) SeqnoDelta() uint64 { return p.in.(seqnoReporter).SeqnoDelta() }

// withSRP is SRP's shape.
type withSRP struct{ withSeqno }

func (p withSRP) ControlBreakdown() (rreq, rrep, rerr uint64) {
	return p.in.(controlReporter).ControlBreakdown()
}

func (p withSRP) MaxDenominator() uint32 { return p.in.(denomReporter).MaxDenominator() }

// wrapProtocol wraps in with the variant matching its optional
// interfaces. A protocol with any other combination is an error, so a new
// shape fails loudly instead of being silently narrowed.
func wrapProtocol(in netstack.Protocol, t *tracer) (netstack.Protocol, error) {
	_, s := in.(successorLister)
	_, q := in.(seqnoReporter)
	_, c := in.(controlReporter)
	_, d := in.(denomReporter)
	base := &tracedProtocol{in: in, t: t}
	switch {
	case !s && !q && !c && !d:
		return base, nil
	case s && !q && !c && !d:
		return withSuccessors{base}, nil
	case s && q && !c && !d:
		return withSeqno{withSuccessors{base}}, nil
	case s && q && c && d:
		return withSRP{withSeqno{withSuccessors{base}}}, nil
	}
	return nil, fmt.Errorf("slrbench: no transparent wrapper for %T (successors=%v seqno=%v control=%v denom=%v)", in, s, q, c, d)
}

// tracedTrial is one traced trial's outputs beyond its Result.
type tracedTrial struct {
	t      tracer
	events uint64
	frames uint64
	mac    struct{ txUnicast, txBroadcast, retries, drops uint64 }
	host   time.Duration
}

// stack is one trial's wired simulation.
type stack struct {
	s      *sim.Simulator
	ch     *radio.Channel
	mx     *metrics.Collector
	protos []netstack.Protocol
	nodes  []*netstack.Node
}

// wire builds p's stack from the public constructors exactly as
// scenario.Run does, with the timing wrappers bound to t at every layer
// seam, and starts its protocols and traffic.
func wire(p scenario.Params, t *tracer) (*stack, error) {
	if p.CheckInvariants {
		return nil, fmt.Errorf("slrbench: traced run does not replicate the loop checker")
	}
	registerWrappers()
	active = t
	defer func() { active = nil }()

	st := &stack{s: sim.New(p.Seed), mx: metrics.NewCollector()}
	mobSpec := p.Mobility
	if mobSpec.Model == "" {
		mobSpec = mobility.Spec{Model: "waypoint", MinSpeed: p.MinSpeed, MaxSpeed: p.MaxSpeed, Pause: p.Pause}
	}
	rp := radio.DefaultParams()
	rp.Range = p.Range
	rp.Propagation = p.Propagation
	if rp.Propagation.Model == "" {
		rp.Propagation.Model = "unit-disk"
	}
	rp.Propagation.Model = tracePrefix + rp.Propagation.Model
	rp.Seed = p.Seed
	rp.MaxSpeed = mobSpec.MaxSpeed
	rp.Index = p.RadioIndex
	st.ch = radio.NewChannel(st.s, rp)
	mobSpec.Model = tracePrefix + mobSpec.Model

	senders := make([]traffic.Sender, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		proto, err := routing.Build(routing.Spec{Name: tracePrefix + string(p.Protocol), Params: p.ProtoParams})
		if err != nil {
			return nil, err
		}
		n := netstack.NewNode(st.s, st.ch, netstack.NodeID(i), proto, st.mx)
		mobRng := rand.New(rand.NewSource(p.Seed<<16 + int64(i)))
		m, err := mobility.Build(p.Terrain, mobRng, mobSpec)
		if err != nil {
			return nil, err
		}
		st.ch.Register(netstack.NodeID(i), m, &tracedReceiver{in: n.Mac(), t: t})
		st.protos = append(st.protos, proto)
		st.nodes = append(st.nodes, n)
		senders[i] = &tracedSender{in: n, t: t}
	}
	for _, n := range st.nodes {
		n.Start()
	}
	trafRng := rand.New(rand.NewSource(p.Seed<<16 + int64(p.Nodes) + 1))
	traffic.NewGenerator(st.s, trafRng, senders, p.Traffic, p.Duration).Start()
	return st, nil
}

// runTraced runs p on its own traced stack. Its Result must equal
// scenario.Run(p)'s; the benchmark checks that through record digests.
func runTraced(p scenario.Params) (scenario.Result, tracedTrial, error) {
	var tt tracedTrial
	start := now()
	st, err := wire(p, &tt.t)
	if err != nil {
		return scenario.Result{}, tt, err
	}
	st.s.RunUntil(p.Duration + 10*time.Second)

	mx := st.mx
	res := scenario.Result{Protocol: p.Protocol, Pause: p.Pause, Seed: p.Seed}
	res.DeliveryRatio = mx.DeliveryRatio()
	res.NetworkLoad = mx.NetworkLoad()
	res.Latency = mx.MeanLatency()
	res.MeanHops = mx.MeanHops()
	res.DataSent = mx.DataSent
	res.DataRecv = mx.DataRecv
	res.ControlTx = mx.ControlTx
	res.Collisions = st.ch.Collisions()
	res.LatencyHist = mx.LatencyHist
	res.LatencyP50, res.LatencyP95, res.LatencyP99 = mx.LatencyHist.PercentilesSec()
	res.HopHist = mx.HopHist
	res.Flows = mx.Flows()
	res.DropReasons = mx.DataDrops

	tt.events = st.s.Fired()
	tt.frames = st.ch.Frames()
	var drops uint64
	for _, n := range st.nodes {
		ms := n.Mac().Stats()
		drops += ms.Drops()
		res.MACDropsRetry += ms.DropsRetry
		res.MACDropsQueue += ms.DropsQueue
		tt.mac.txUnicast += ms.TxUnicast
		tt.mac.txBroadcast += ms.TxBroadcast
		tt.mac.retries += ms.Retries
	}
	tt.mac.drops = drops
	res.MACDrops = float64(drops) / float64(p.Nodes)

	var seqSum uint64
	seqCount := 0
	for _, pr := range st.protos {
		if sr, ok := pr.(seqnoReporter); ok {
			seqSum += sr.SeqnoDelta()
			seqCount++
		}
		if dr, ok := pr.(denomReporter); ok && dr.MaxDenominator() > res.MaxDenom {
			res.MaxDenom = dr.MaxDenominator()
		}
		if cr, ok := pr.(controlReporter); ok {
			q, r, e := cr.ControlBreakdown()
			res.RREQTx += q
			res.RREPTx += r
			res.RERRTx += e
		}
	}
	if seqCount > 0 {
		res.AvgSeqno = float64(seqSum) / float64(seqCount)
	}
	tt.host = now().Sub(start)
	return res, tt, nil
}

// tracedBatch is the traced run of a workload's whole job list.
type tracedBatch struct {
	t       tracer
	trials  []time.Duration
	events  uint64
	frames  uint64
	collide uint64
	ctlTx   uint64
	mac     struct{ txUnicast, txBroadcast, retries, drops uint64 }
	digests []string
}

// runTracedBatch runs every job through runTraced, one after another, as
// the untraced batch does.
func runTracedBatch(jobs []runner.Job) (*tracedBatch, error) {
	b := &tracedBatch{}
	results := make([]scenario.Result, len(jobs))
	for i, j := range jobs {
		res, tt, err := runTraced(j.Params)
		if err != nil {
			return nil, err
		}
		results[i] = res
		for s := range tt.t.calls {
			b.t.calls[s] += tt.t.calls[s]
			b.t.self[s] += tt.t.self[s]
		}
		b.trials = append(b.trials, tt.host)
		b.events += tt.events
		b.frames += tt.frames
		b.collide += res.Collisions
		b.ctlTx += res.ControlTx
		b.mac.txUnicast += tt.mac.txUnicast
		b.mac.txBroadcast += tt.mac.txBroadcast
		b.mac.retries += tt.mac.retries
		b.mac.drops += tt.mac.drops
	}
	ds, err := digests(jobs, results)
	if err != nil {
		return nil, err
	}
	b.digests = ds
	return b, nil
}
