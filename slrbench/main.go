// Command slrbench is the repository's benchmark. It runs one named
// workload (a closed batch of simulation trials) through the program's
// public entry points, scenario.Run and runner.Run, checks every trial's
// record against committed digests, and prints the workload's host cost
// as one JSON object on the last line of standard output.
//
//	slrbench --workload olsr-paper --seed 1 --seconds 36 --trace 0
//
// With --trace 0 it runs one batch per 12 s of --seconds, on consecutive
// seeds, and reports the end-to-end metrics (medians over batches). With
// --trace 1 it runs one batch untraced and again through its own wiring
// of the stack with timing wrappers at every layer seam, and reports
// per-layer metrics. Each batch runs in a child process of its own, so a
// panic or an overrun costs that batch's trials and not the report, and
// peak memory is per batch. See README.md for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"slr/internal/runner"
)

// digestFile holds the committed record digests: workload name ->
// scenario seed -> one digest per trial, in job order.
//
//go:embed digests.json
var digestFile []byte

// committedSeeds is how many scenario seeds digests.json covers (1..n).
// The --seed argument is folded onto them, so every run is checked
// against committed output.
const committedSeeds = 10

// runLimit bounds one invocation: a batch still running this long after
// start is killed and its trials count as failed.
const runLimit = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slrbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: manhattan-500 or olsr-paper")
	seed := fs.Int64("seed", 1, "input seed; folded onto the committed scenario seeds 1.."+strconv.Itoa(committedSeeds))
	seconds := fs.Int("seconds", 36, "measurement length: one batch per "+strconv.Itoa(batchSeconds)+" s, at least one")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end measurement")
	child := fs.Bool("child", false, "run one batch in this process and print its raw measurements (used by the benchmark itself)")
	writeDigests := fs.Bool("write-digests", false, "rerun every workload on every committed scenario seed and print a new digests.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeDigests {
		if err := printDigests(stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "slrbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "slrbench: %v\n", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "slrbench: -trace must be 0 or 1\n")
		return 2
	}
	if *child {
		err = runChild(w, *seed, *trace == 1, stdout)
	} else {
		err = measure(w, *seed, *seconds, *trace == 1, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "slrbench: %v\n", err)
		return 1
	}
	return 0
}

// scenarioSeed folds any input seed onto 1..committedSeeds.
func scenarioSeed(seed int64) int64 {
	return 1 + ((seed-1)%committedSeeds+committedSeeds)%committedSeeds
}

// childOutput is what a child process prints: the untraced batch and, in
// a traced run, the traced batch's digests and the per-layer metrics.
type childOutput struct {
	Batch         batchResult        `json:"batch"`
	TracedDigests []string           `json:"traced_digests,omitempty"`
	Layers        map[string]float64 `json:"layers,omitempty"`
}

func runChild(w workload, seed int64, traced bool, stdout io.Writer) error {
	jobs, err := w.jobs(seed)
	if err != nil {
		return err
	}
	var out childOutput
	if !traced {
		if out.Batch, err = runBatch(jobs); err != nil {
			return err
		}
	} else if out, err = runTraceMode(jobs); err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// runTraceMode runs the batch untraced under the CPU profiler, then
// traced, and derives the per-layer metrics from both.
func runTraceMode(jobs []runner.Job) (childOutput, error) {
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return childOutput{}, err
	}
	b, err := runBatch(jobs)
	pprof.StopCPUProfile()
	if err != nil {
		return childOutput{}, err
	}
	runtime.ReadMemStats(&m1)
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return childOutput{}, err
	}
	tb, err := runTracedBatch(jobs)
	if err != nil {
		return childOutput{}, err
	}

	t := &tb.t
	var tracedHost time.Duration
	trials := make([]float64, len(tb.trials))
	for i, d := range tb.trials {
		tracedHost += d
		trials[i] = d.Seconds()
	}
	sort.Float64s(trials)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layers := map[string]float64{
		"sim.events":       float64(tb.events),
		"sim.ns_per_event": ratio(b.TrialHost*1e9, float64(tb.events)),

		"radio.frames":               float64(tb.frames),
		"radio.collisions":           float64(tb.collide),
		"radio.linkrange.calls":      float64(t.calls[spanLinkRange]),
		"radio.linkrange.s":          t.self[spanLinkRange].Seconds(),
		"radio.rx.calls":             float64(t.calls[spanRx]),
		"radio.candidates_per_frame": ratio(float64(t.calls[spanLinkRange]), float64(tb.frames)),
		"radio.audible_ratio":        ratio(float64(t.calls[spanRx]), float64(t.calls[spanLinkRange])),

		"mac.rx.self_s":        t.self[spanRx].Seconds(),
		"mac.tx_unicast":       float64(tb.mac.txUnicast),
		"mac.tx_broadcast":     float64(tb.mac.txBroadcast),
		"mac.retries":          float64(tb.mac.retries),
		"mac.drops":            float64(tb.mac.drops),
		"netstack.send.calls":  float64(t.calls[spanSend]),
		"netstack.send.self_s": t.self[spanSend].Seconds(),

		"routing.recv_control.calls": float64(t.calls[spanRecvControl]),
		"routing.recv_control.s":     t.self[spanRecvControl].Seconds(),
		"routing.recv_data.calls":    float64(t.calls[spanRecvData]),
		"routing.recv_data.s":        t.self[spanRecvData].Seconds(),
		"routing.originate.calls":    float64(t.calls[spanOriginate]),
		"routing.originate.s":        t.self[spanOriginate].Seconds(),
		"routing.data_failed.calls":  float64(t.calls[spanDataFailed]),
		"routing.control_tx":         float64(tb.ctlTx),

		"mobility.position.calls": float64(t.calls[spanPosition]),
		"mobility.position.s":     t.self[spanPosition].Seconds(),

		"runtime.alloc_mb":   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		"runtime.mallocs":    float64(m1.Mallocs - m0.Mallocs),
		"runtime.gc_cycles":  float64(m1.NumGC - m0.NumGC),
		"runner.busy_frac":   ratio(b.TrialHost, b.Wall),
		"runner.trial_p50_s": median(trials),
		"runner.trial_max_s": trials[len(trials)-1],

		"trace.overhead_frac": ratio(tracedHost.Seconds(), b.TrialHost) - 1,
	}
	for k, v := range shares {
		layers[k] = v
	}
	return childOutput{Batch: b, TracedDigests: tb.digests, Layers: layers}, nil
}
