// Package scenario wires a complete simulation run: N nodes moving on a
// terrain, a routing protocol per node, a traffic workload, metrics
// collection, and optional continuous loop-freedom checking. It is the
// reproduction of the paper's GloMoSim experiment driver (§V), defaulting
// to that evaluation's exact setup (random waypoint, CBR, unit-disk
// radio); Params.Mobility, Params.Traffic.Model, and Params.Propagation
// select any other registered model, and internal/spec loads a complete
// Params from a declarative JSON scenario file.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"slr/internal/geo"
	"slr/internal/loopcheck"
	"slr/internal/metrics"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/routing"
	"slr/internal/routing/srp"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// ProtocolName selects the routing protocol of a run; it must name an
// entry of the routing registry (slr/internal/routing).
type ProtocolName string

// The five protocols of the paper's evaluation.
const (
	SRP  ProtocolName = "SRP"
	LDR  ProtocolName = "LDR"
	AODV ProtocolName = "AODV"
	DSR  ProtocolName = "DSR"
	OLSR ProtocolName = "OLSR"
)

// AllProtocols lists the evaluation's protocols in the paper's order.
// Every entry resolves through the routing registry, and vice versa
// (enforced by a scenario test), so sweeps over AllProtocols cover the
// whole registry in a stable order.
var AllProtocols = []ProtocolName{SRP, LDR, AODV, DSR, OLSR}

// Params configures one run. The zero value is unusable; start from
// DefaultParams.
type Params struct {
	Protocol ProtocolName
	Nodes    int
	Terrain  geo.Terrain
	Range    float64
	MinSpeed float64
	MaxSpeed float64
	Pause    sim.Time
	Duration sim.Time
	Seed     int64
	Traffic  traffic.Params
	// CheckInvariants runs the per-destination successor-graph cycle
	// check every CheckEvery of simulated time.
	CheckInvariants bool
	CheckEvery      sim.Time
	// ProtoParams overrides the selected protocol's constants (spec
	// "protocol_params": durations in seconds, booleans as 0/1). Keys are
	// protocol-specific and validated by the routing registry; the
	// ablation benches toggle SRP heuristics through it.
	ProtoParams map[string]float64
	// Mobility optionally selects a registered mobility model. The zero
	// value keeps the paper's random waypoint built from MinSpeed,
	// MaxSpeed, and Pause; a non-empty Model overrides all three from
	// its own fields.
	Mobility mobility.Spec
	// Propagation optionally selects a registered radio propagation
	// model; the zero value is unit-disk at Range, the paper's radio.
	Propagation radio.PropSpec
	// RadioIndex selects the channel's audible-set index. The default
	// (auto) uses the spatial grid whenever the mobility speed bound is
	// known; tests force the linear reference scan to prove the two are
	// byte-identical.
	RadioIndex radio.IndexKind
}

// DefaultParams returns the paper's simulation setup: 100 nodes on
// 2200 m x 600 m, 0-20 m/s random waypoint, 30 CBR flows of 512-byte
// packets at 4 pps, 900 s runs.
func DefaultParams(proto ProtocolName, pause sim.Time, seed int64) Params {
	return Params{
		Protocol:   proto,
		Nodes:      100,
		Terrain:    geo.Terrain{Width: 2200, Height: 600},
		Range:      275,
		MinSpeed:   0,
		MaxSpeed:   20,
		Pause:      pause,
		Duration:   900 * time.Second,
		Seed:       seed,
		Traffic:    traffic.DefaultParams(),
		CheckEvery: 5 * time.Second,
	}
}

// PaperPauseTimes are the eight pause times of Figs. 3–7.
var PaperPauseTimes = []sim.Time{
	0, 50 * time.Second, 100 * time.Second, 200 * time.Second,
	300 * time.Second, 500 * time.Second, 700 * time.Second, 900 * time.Second,
}

// Result carries one run's measurements.
type Result struct {
	Protocol ProtocolName
	Pause    sim.Time
	Seed     int64

	DeliveryRatio float64
	NetworkLoad   float64
	Latency       float64 // seconds
	MACDrops      float64 // mean per node (Fig. 3)
	AvgSeqno      float64 // mean own-seqno increments per node (Fig. 7)
	MeanHops      float64

	DataSent   uint64
	DataRecv   uint64
	ControlTx  uint64
	Collisions uint64
	LoopChecks int
	LoopErrors []string
	MaxDenom   uint32 // largest SRP fraction denominator observed

	// Diagnostics: routing-layer drop reasons and the MAC drop split.
	DropReasons   map[string]uint64
	MACDropsRetry uint64
	MACDropsQueue uint64
	// RREQTx/RREPTx/RERRTx break down control traffic for protocols that
	// report it (SRP).
	RREQTx, RREPTx, RERRTx uint64

	// LatencyHist is the delivered-packet end-to-end latency histogram in
	// microseconds; LatencyP50/P95/P99 are its exact bucket-bound
	// percentiles in seconds (the latency tail Fig. 6's mean hides).
	LatencyHist metrics.Hist
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	// HopHist is the delivered-packet hop-count histogram.
	HopHist metrics.Hist
	// Flows is the per-flow ledger (sent/recv/first-last delivery), in
	// flow-id order.
	Flows []metrics.FlowStat
}

// seqnoReporter is implemented by SRP, LDR and AODV (Fig. 7's protocols).
type seqnoReporter interface{ SeqnoDelta() uint64 }

// controlReporter is implemented by protocols that split their control
// traffic by type.
type controlReporter interface {
	ControlBreakdown() (rreq, rrep, rerr uint64)
}

// SimHook, when non-nil, is called with each trial's Simulator right
// after creation, before any event is scheduled. It exists for the
// scheduler-gate tests in the repo root, which use it to enable the
// kernel's shadow order checker on full protocol scenarios.
var SimHook func(*sim.Simulator)

// Run executes one simulation and returns its measurements.
func Run(p Params) Result {
	s := sim.New(p.Seed)
	if SimHook != nil {
		SimHook(s)
	}
	mobSpec := p.Mobility
	if mobSpec.Model == "" {
		// The paper's random waypoint, from the legacy scalar fields.
		mobSpec = mobility.Spec{
			Model:    "waypoint",
			MinSpeed: p.MinSpeed,
			MaxSpeed: p.MaxSpeed,
			Pause:    p.Pause,
		}
	}
	rp := radio.DefaultParams()
	rp.Range = p.Range
	rp.Propagation = p.Propagation
	rp.Seed = p.Seed
	rp.MaxSpeed = mobSpec.MaxSpeed
	rp.Index = p.RadioIndex
	ch := radio.NewChannel(s, rp)
	mx := metrics.NewCollector()

	// Mobility and traffic get RNG streams independent of the protocol
	// stack, and each node's mobility its own stream, so a seed fixes
	// one topology and one workload for every protocol — the paper's
	// offline-generated per-trial scripts.
	protos := make([]netstack.Protocol, p.Nodes)
	nodes := make([]*netstack.Node, p.Nodes)
	senders := make([]traffic.Sender, p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		protos[i] = buildProtocol(p)
		n := netstack.NewNode(s, ch, netstack.NodeID(i), protos[i], mx)
		mobRng := rand.New(rand.NewSource(p.Seed<<16 + int64(i)))
		m, err := mobility.Build(p.Terrain, mobRng, mobSpec)
		if err != nil {
			// Spec loading validates model names and parameters, so an
			// error here is a wiring bug.
			panic(err)
		}
		ch.Register(netstack.NodeID(i), m, n.Mac())
		nodes[i] = n
		senders[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}

	trafRng := rand.New(rand.NewSource(p.Seed<<16 + int64(p.Nodes) + 1))
	gen := traffic.NewGenerator(s, trafRng, senders, p.Traffic, p.Duration)
	gen.Start()

	res := Result{Protocol: p.Protocol, Pause: p.Pause, Seed: p.Seed}

	if p.CheckInvariants {
		every := p.CheckEvery
		if every <= 0 {
			every = 5 * time.Second
		}
		var check func()
		check = func() {
			if err := checkLoops(protos); err != nil {
				res.LoopErrors = append(res.LoopErrors,
					fmt.Sprintf("t=%v: %v", s.Now(), err))
			}
			res.LoopChecks++
			if s.Now() < p.Duration {
				s.After(every, check)
			}
		}
		s.After(every, check)
	}

	// Drain for a grace period after traffic ends so in-flight packets
	// count.
	s.RunUntil(p.Duration + 10*time.Second)

	res.DeliveryRatio = mx.DeliveryRatio()
	res.NetworkLoad = mx.NetworkLoad()
	res.Latency = mx.MeanLatency()
	res.MeanHops = mx.MeanHops()
	res.DataSent = mx.DataSent
	res.DataRecv = mx.DataRecv
	res.ControlTx = mx.ControlTx
	res.Collisions = ch.Collisions()
	res.LatencyHist = mx.LatencyHist
	res.LatencyP50, res.LatencyP95, res.LatencyP99 = mx.LatencyHist.PercentilesSec()
	res.HopHist = mx.HopHist
	res.Flows = mx.Flows()

	var drops uint64
	for _, n := range nodes {
		st := n.Mac().Stats()
		drops += st.Drops()
		res.MACDropsRetry += st.DropsRetry
		res.MACDropsQueue += st.DropsQueue
	}
	res.MACDrops = float64(drops) / float64(p.Nodes)
	res.DropReasons = mx.DataDrops

	var seqSum uint64
	seqCount := 0
	for _, pr := range protos {
		if sr, ok := pr.(seqnoReporter); ok {
			seqSum += sr.SeqnoDelta()
			seqCount++
		}
		if sp, ok := pr.(*srp.Protocol); ok {
			if d := sp.MaxDenominator(); d > res.MaxDenom {
				res.MaxDenom = d
			}
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
	return res
}

func buildProtocol(p Params) netstack.Protocol {
	proto, err := routing.Build(routing.Spec{Name: string(p.Protocol), Params: p.ProtoParams})
	if err != nil {
		// Spec loading validates protocol names and parameters, so an
		// error here is a wiring bug.
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return proto
}

// checkLoops verifies per-destination acyclicity over all protocols'
// successor sets.
func checkLoops(protos []netstack.Protocol) error {
	for dst := range protos {
		if cyc := loopcheck.FindCycle(loopcheck.Adjacency(protos, netstack.NodeID(dst))); cyc != nil {
			return fmt.Errorf("destination %d: successor cycle %v", dst, cyc)
		}
	}
	return nil
}

// TrialSet aggregates per-trial results for one (protocol, pause) point.
type TrialSet struct {
	Protocol ProtocolName
	Pause    sim.Time
	Results  []Result
}

// Series extracts a metric across trials.
func (ts *TrialSet) Series(metric func(Result) float64) *metrics.Series {
	s := &metrics.Series{}
	for _, r := range ts.Results {
		s.Add(metric(r))
	}
	return s
}

// RunTrials runs `trials` independent runs of p (seeds p.Seed, p.Seed+1,
// ...) serially and returns them in seed order. The same seed produces the
// same topology and traffic for every protocol, matching the paper's fixed
// per-trial mobility and traffic scripts.
//
// RunTrials is the serial reference path: the parallel runner in
// internal/runner must produce byte-identical results for the same seeds,
// and its regression tests compare against this loop. Use
// runner.Run(runner.TrialJobs(p, trials), opts) to saturate all cores.
func RunTrials(p Params, trials int) TrialSet {
	results := make([]Result, trials)
	for i := range results {
		tp := p
		tp.Seed = p.Seed + int64(i)
		results[i] = Run(tp)
	}
	return TrialSet{Protocol: p.Protocol, Pause: p.Pause, Results: results}
}
