package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"syscall"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/spec"
)

// workload is one closed batch of trials: a fixed job list built from a
// scenario seed, run to completion and reported as host cost.
type workload struct {
	name string
	jobs func(seed int64) ([]runner.Job, error)
}

// workloads are the benchmark's batches. Each stresses a different layer
// mix; README.md records why each was chosen, and why the paper's
// evaluation grid is not one of them.
var workloads = []workload{
	{name: "manhattan-500", jobs: manhattan500Jobs},
	{name: "olsr-paper", jobs: olsrPaperJobs},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// manhattan500Jobs is examples/scenarios/manhattan-500.json cut to one
// trial with a 30 s horizon.
func manhattan500Jobs(seed int64) ([]runner.Job, error) {
	return specJobs(&spec.ScenarioSpec{
		Version:         spec.Version,
		Name:            "manhattan-500",
		Protocol:        "SRP",
		Nodes:           500,
		Terrain:         spec.Terrain{WidthM: 3000, HeightM: 3000},
		DurationSeconds: 30,
		Seed:            seed,
		Radio: spec.Radio{RangeM: 275, Propagation: "shadowing",
			Params: map[string]float64{"sigma_db": 4, "pathloss_exp": 3}},
		Mobility: spec.Mobility{Model: "manhattan", MinSpeedMps: 1, MaxSpeedMps: 15, PauseSeconds: 5,
			Params: map[string]float64{"block_m": 150}},
		Traffic: spec.Traffic{Model: "onoff", Flows: 60, PacketSizeBytes: 512, RatePps: 4, MeanLifeSeconds: 60,
			Params: map[string]float64{"on_mean_seconds": 2, "off_mean_seconds": 3}},
	})
}

// olsrPaperJobs is OLSR on the paper's full-scale topology (the built-in
// paper-default spec, pause 0) with a 400 s horizon.
func olsrPaperJobs(seed int64) ([]runner.Job, error) {
	s := spec.PaperDefault()
	s.Protocol = "OLSR"
	s.DurationSeconds = 400
	s.Seed = seed
	return specJobs(s)
}

func specJobs(s *spec.ScenarioSpec) ([]runner.Job, error) {
	p, err := s.Params()
	if err != nil {
		return nil, err
	}
	// Params maps seed 0 to the spec default; the benchmark's seed is
	// used as given.
	p.Seed = s.Seed
	return runner.TrialJobs(p, 1), nil
}

// recordDigest is the identity of one trial's output: a SHA-256 prefix of
// its runner.NewRecord JSONL line.
func recordDigest(j runner.Job, r scenario.Result) (string, error) {
	var buf bytes.Buffer
	e := runner.NewJSONL(&buf)
	if err := e.Emit(j, r); err != nil {
		return "", err
	}
	if err := e.Flush(); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

func digests(jobs []runner.Job, results []scenario.Result) ([]string, error) {
	out := make([]string, len(jobs))
	for i := range jobs {
		d, err := recordDigest(jobs[i], results[i])
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// now reads the host clock. Every wall-clock read of the benchmark goes
// through here; none reaches a trial's record.
func now() time.Time {
	return time.Now() //slrlint:allow walltime the benchmark measures host time; no value reaches a trial's record
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// setupDone is the panic value that ends a set-up probe's trial.
var setupDone = new(int)

// setupProbe runs every job through scenario.Run up to its first fired
// event, one after another, and returns the summed set-up time: building
// nodes, protocol instances, mobility models, the channel and its grid,
// and starting traffic. scenario.SimHook runs at entry to each trial,
// right after its Simulator exists; the probe's hook schedules one event
// at time 0 before anything else is scheduled, so it fires first.
// scenario.Run has no set-up-only mode, so that event ends the trial by
// panicking, and the probe recovers.
func setupProbe(jobs []runner.Job) time.Duration {
	var setup time.Duration
	scenario.SimHook = func(s *sim.Simulator) {
		start := now()
		s.At(0, func() {
			setup += now().Sub(start)
			panic(setupDone)
		})
	}
	defer func() { scenario.SimHook = nil }()
	for _, j := range jobs {
		func() {
			defer func() {
				if r := recover(); r != setupDone {
					panic(r)
				}
			}()
			scenario.Run(j.Params)
		}()
	}
	return setup
}

// setupProbes is how many set-up probes precede each measured batch; the
// batch reports their median.
const setupProbes = 5

// batchResult is what one batch measures.
type batchResult struct {
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"`
	Setup   float64 `json:"setup_s"`
	PeakRSS float64 `json:"peak_rss_mb"`
	// TrialHost is the summed host seconds of every trial, from entry
	// into scenario.Run to its result.
	TrialHost float64  `json:"trial_host_s"`
	Digests   []string `json:"digests"`
}

// runBatch runs the jobs through the program's public entry point with
// tracing off: runner.Run with one worker, so the trials run one after
// another. Set-up probes run first.
func runBatch(jobs []runner.Job) (batchResult, error) {
	setups := make([]float64, setupProbes)
	for i := range setups {
		setups[i] = setupProbe(jobs).Seconds()
	}

	// The hook stamps each trial's entry into scenario.Run; it schedules
	// nothing, so the measured trials run exactly as without it.
	var startSum, endSum time.Duration
	t0 := now()
	scenario.SimHook = func(*sim.Simulator) { startSum += now().Sub(t0) }
	defer func() { scenario.SimHook = nil }()
	cpu0 := cpuTime()
	results, err := runner.Run(jobs, runner.Options{
		Workers:  1,
		OnResult: func(runner.Job, scenario.Result) { endSum += now().Sub(t0) },
	})
	if err != nil {
		return batchResult{}, err
	}
	wall := now().Sub(t0)
	cpu := cpuTime() - cpu0

	ds, err := digests(jobs, results)
	if err != nil {
		return batchResult{}, err
	}
	return batchResult{
		Wall:      wall.Seconds(),
		CPU:       cpu.Seconds(),
		Setup:     median(setups),
		PeakRSS:   peakRSSMB(),
		TrialHost: (endSum - startSum).Seconds(),
		Digests:   ds,
	}, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count). xs must be non-empty; it is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
