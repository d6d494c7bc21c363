// Command slrsim runs a single wireless ad hoc routing simulation and
// prints its metrics.
//
// -spec loads a declarative scenario file (or a built-in name like
// "paper-default") as the baseline; any topology or workload flag given
// explicitly on the command line overrides the spec's value.
//
// -pparam name=value (repeatable) overrides one protocol constant using
// the same vocabulary as the spec's "protocol_params" section.
//
// -jsonl streams one record per trial, the same schema the sweep binary
// writes; -shard i/n runs a deterministic 1/n slice of the trial list,
// and -resume continues an interrupted -jsonl, re-running only missing
// trials. Existing non-empty output needs -resume or -force.
//
// -cpuprofile and -memprofile write pprof profiles of the run (the heap
// profile is taken after a final GC), so finding the next hot spot in a
// large-N scenario is one flag away: go tool pprof slrsim cpu.out.
//
// -worker URL turns the binary into a pull worker for an slrserve
// coordinator: it leases job batches over /v1, runs them on all local
// CPUs, and POSTs the records back until the sweep is done. Jobs arrive
// fully parameterized, so no scenario flag combines with -worker.
//
// -check runs the loop-freedom invariant checks and prints each trial's
// violations. A violation by a protocol that claims loop-freedom (SRP,
// LDR, AODV; see routing.LoopFree) makes slrsim exit non-zero after
// printing; OLSR's and DSR's successor cycles are reported only.
//
// Example:
//
//	slrsim -protocol SRP -nodes 100 -pause 0 -flows 30 -duration 900s -seed 1
//	slrsim -spec examples/scenarios/manhattan-500.json -trials 1
//	slrsim -spec paper-default -protocol AODV
//	slrsim -protocol AODV -pparam rreq_retries=4 -pparam ttl_0=35
//	slrsim -spec paper-default -trials 10 -shard 2/2 -jsonl shard2.jsonl
//	slrsim -worker http://sweep-host:8356 -batch 4
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/runner/sweepcli"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/spec"
	"slr/internal/sweepd"
	"slr/internal/traffic"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slrsim:", err)
		os.Exit(1)
	}
}

// workerModeFlags is the single allowlist of flags that combine with
// -worker: the worker's own knobs plus profiling (a worker is exactly
// where a large-N sweep spends its time). Everything else — scenario
// shape, the dynamic checkers (-check, -ordercheck), and output routing
// — is refused by name: jobs arrive fully parameterized from the
// coordinator, so such a flag on the same command line means confusion,
// not intent.
var workerModeFlags = map[string]bool{
	"worker": true, "worker-id": true, "batch": true, "poll": true,
	"crash-after-lease": true, "cpuprofile": true, "memprofile": true,
}

// rejectNonWorkerFlags returns an error naming, in sorted order, every
// explicitly set flag outside workerModeFlags.
func rejectNonWorkerFlags(set map[string]bool) error {
	var conflict []string
	for name := range set {
		if !workerModeFlags[name] {
			conflict = append(conflict, "-"+name)
		}
	}
	if len(conflict) == 0 {
		return nil
	}
	sort.Strings(conflict)
	return fmt.Errorf("-worker mode pulls fully parameterized jobs from the coordinator; %s cannot apply", strings.Join(conflict, " "))
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("slrsim", flag.ContinueOnError)
	var (
		protoName = fs.String("protocol", "SRP", "routing protocol: SRP, LDR, AODV, DSR, OLSR")
		nodes     = fs.Int("nodes", 100, "number of nodes")
		width     = fs.Float64("width", 2200, "terrain width in meters")
		height    = fs.Float64("height", 600, "terrain height in meters")
		rng       = fs.Float64("range", 275, "radio range in meters")
		pause     = fs.Duration("pause", 0, "random-waypoint pause time")
		maxSpeed  = fs.Float64("speed", 20, "maximum node speed in m/s")
		duration  = fs.Duration("duration", 900*time.Second, "simulated time")
		seed      = fs.Int64("seed", 1, "random seed (fixes topology and traffic)")
		flows     = fs.Int("flows", 30, "concurrent CBR flows")
		rate      = fs.Float64("rate", 4, "packets per second per flow")
		pktSize   = fs.Int("size", 512, "CBR payload bytes")
		check     = fs.Bool("check", false, "verify loop-freedom invariant during the run")
		ordrcheck = fs.Bool("ordercheck", false, "shadow the event queue with a reference implementation and verify dispatch order (slow; debugging aid)")
		trials    = fs.Int("trials", 1, "independent trials (seeds seed..seed+trials-1)")
		specArg   = fs.String("spec", "", "scenario spec (path or built-in name) as the baseline; explicit flags override it")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to `file`")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile (after GC, at exit) to `file`")

		workerURL  = fs.String("worker", "", "run as a pull worker for the slrserve coordinator at this base `URL`; jobs arrive fully parameterized, so scenario flags do not apply")
		workerID   = fs.String("worker-id", "", "with -worker: identity reported to the coordinator (default hostname-pid)")
		batch      = fs.Int("batch", 1, "with -worker: jobs leased per pull")
		poll       = fs.Duration("poll", 2*time.Second, "with -worker: wait between pulls while every pending job is leased elsewhere")
		crashLease = fs.Bool("crash-after-lease", false, "with -worker: lease one batch, then exit 137 without acknowledging it (crash injection for lease-expiry tests)")
	)
	cli := sweepcli.Register(fs, false)
	protoParams := routing.ParamsFlag{}
	fs.Var(protoParams, "pparam", "protocol parameter override `name=value` (repeatable); keys follow the spec's protocol_params vocabulary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if *workerURL != "" {
		if err := rejectNonWorkerFlags(set); err != nil {
			return err
		}
		return runWorker(*workerURL, *workerID, *batch, *poll, *crashLease)
	}

	proto := scenario.ProtocolName(strings.ToUpper(*protoName))
	if err := routing.Validate(routing.Spec{Name: string(proto)}); err != nil {
		return err
	}

	if *ordrcheck {
		// Pair every ladder-queue dispatch against a reference queue for
		// the whole run; the hook attaches it to each trial's fresh kernel.
		scenario.SimHook = func(s *sim.Simulator) { s.EnableOrderCheck() }
	}

	var p scenario.Params
	if *specArg != "" {
		s, err := spec.Resolve(*specArg)
		if err != nil {
			return err
		}
		if p, err = s.Params(); err != nil {
			return err
		}
		if !set["trials"] {
			*trials = s.TrialCount()
		}
		// Explicit flags override the spec; a changed speed or pause
		// also drops the spec's mobility section back to the waypoint
		// defaults those flags describe.
		if set["protocol"] && p.Protocol != proto {
			// The spec's protocol_params described the spec's protocol;
			// they do not carry over to a different one.
			p.Protocol = proto
			p.ProtoParams = nil
		}
		if set["nodes"] {
			p.Nodes = *nodes
		}
		if set["width"] {
			p.Terrain.Width = *width
		}
		if set["height"] {
			p.Terrain.Height = *height
		}
		if set["range"] {
			p.Range = *rng
		}
		if set["duration"] {
			p.Duration = *duration
		}
		if set["seed"] {
			p.Seed = *seed
		}
		if set["flows"] {
			p.Traffic.Flows = *flows
		}
		if set["rate"] {
			p.Traffic.Rate = *rate
		}
		if set["size"] {
			p.Traffic.PacketSize = *pktSize
		}
		if set["pause"] || set["speed"] {
			// Overriding motion flags drops the spec's mobility model
			// back to the waypoint those flags describe, keeping the
			// spec's value for whichever of the pair was not given and
			// never letting the floor exceed the new speed ceiling.
			if set["speed"] {
				p.MaxSpeed = *maxSpeed
			}
			if set["pause"] {
				p.Pause = *pause
			}
			p.MinSpeed = math.Min(p.MinSpeed, p.MaxSpeed)
			p.Mobility = mobility.Spec{}
		}
		if set["check"] {
			p.CheckInvariants = *check
		}
	} else {
		p = scenario.DefaultParams(proto, *pause, *seed)
		p.Nodes = *nodes
		p.Terrain = geo.Terrain{Width: *width, Height: *height}
		p.Range = *rng
		p.MaxSpeed = *maxSpeed
		p.Duration = *duration
		p.Traffic = traffic.Params{
			Flows: *flows, PacketSize: *pktSize, Rate: *rate,
			MeanLife: 60 * time.Second,
		}
		p.CheckInvariants = *check
	}

	// -pparam overrides merge over the spec's protocol_params.
	p.ProtoParams = routing.MergeParams(p.ProtoParams, protoParams)
	if err := routing.Validate(routing.Spec{Name: string(p.Protocol), Params: p.ProtoParams}); err != nil {
		return err
	}

	if err := cli.Validate(); err != nil {
		return err
	}
	if cli.Resume {
		// slrsim runs one configuration; salvaged records from another
		// (a different -protocol or -pause) can only mean the wrong
		// file. Refuse BEFORE OpenJSONLOutput repairs or truncates the
		// tail — a refused file must stay byte-for-byte untouched.
		// (cmd/experiments' spec mode instead splits mixed groups.)
		if err := checkResumable(cli.JSONL, p, *trials); err != nil {
			return err
		}
	}
	out, err := cli.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer out.Close()
	salvaged := out.Salvaged
	jobs := cli.Jobs(runner.TrialJobs(p, *trials), out, os.Stderr)
	// An emitter failure (e.g. disk full under -jsonl) must not discard
	// computed trials: print the metrics, then report the error.
	results, emitErr := runner.Run(jobs, runner.Options{Emitters: out.Emitters})
	var salvagedAt []bool // parallel to results after the fold
	if len(salvaged) > 0 {
		// Fold the salvaged trials back in, seed (= trial) order, so the
		// printed metrics cover the whole trial set, not just the jobs
		// this process re-ran. A hand-concatenated file can repeat a
		// trial; dedup like every other merge path. Provenance rides along
		// by position, not seed — a shifted -seed resume can give a fresh
		// trial the same seed value as a salvaged one.
		salvaged, _ = runner.DedupRecords(salvaged)
		type trial struct {
			res      scenario.Result
			salvaged bool
		}
		combined := make([]trial, 0, len(salvaged)+len(results))
		for _, rec := range salvaged {
			combined = append(combined, trial{rec.Result(), true})
		}
		for _, r := range results {
			combined = append(combined, trial{r, false})
		}
		// Stable so equal seeds keep a deterministic print order.
		sort.SliceStable(combined, func(i, j int) bool { return combined[i].res.Seed < combined[j].res.Seed })
		results = make([]scenario.Result, len(combined))
		salvagedAt = make([]bool, len(combined))
		for i, t := range combined {
			results[i] = t.res
			salvagedAt[i] = t.salvaged
		}
	}
	ts := scenario.TrialSet{Protocol: p.Protocol, Pause: p.Pause, Results: results}
	for i, r := range ts.Results {
		fmt.Printf("protocol=%s seed=%d pause=%v\n", r.Protocol, r.Seed, r.Pause)
		fmt.Printf("  delivery ratio  %.4f  (%d/%d)\n", r.DeliveryRatio, r.DataRecv, r.DataSent)
		fmt.Printf("  network load    %.4f  (%d control packets)\n", r.NetworkLoad, r.ControlTx)
		fmt.Printf("  latency         %.4f s\n", r.Latency)
		fmt.Printf("  mean hops       %.2f\n", r.MeanHops)
		fmt.Printf("  MAC drops/node  %.1f\n", r.MACDrops)
		fmt.Printf("  avg seqno       %.2f\n", r.AvgSeqno)
		if r.MaxDenom > 0 {
			fmt.Printf("  max denominator %d\n", r.MaxDenom)
		}
		if p.CheckInvariants {
			if i < len(salvagedAt) && salvagedAt[i] {
				// Records carry no loop-check counters: a salvaged trial
				// was not re-checked, and must not read as checked-clean.
				fmt.Printf("  loop checks     n/a (salvaged trial, not re-checked)\n")
				continue
			}
			fmt.Printf("  loop checks     %d (%d violations)\n", r.LoopChecks, len(r.LoopErrors))
			for _, e := range r.LoopErrors {
				fmt.Printf("    VIOLATION %s\n", e)
			}
		}
	}
	if len(ts.Results) > 1 {
		n := len(ts.Results)
		deliv := ts.Series(func(r scenario.Result) float64 { return r.DeliveryRatio })
		load := ts.Series(func(r scenario.Result) float64 { return r.NetworkLoad })
		lat := ts.Series(func(r scenario.Result) float64 { return r.Latency })
		fmt.Printf("mean over %d trials: deliv %.4f±%.4f  load %.4f±%.4f  latency %.4f±%.4f",
			n, deliv.Mean(), deliv.CI(), load.Mean(), load.CI(), lat.Mean(), lat.CI())
		if load.NaNs > 0 {
			// Zero-delivery trials have no load ratio; say the sample
			// shrank instead of printing a mean that looks measured.
			fmt.Printf("  (load n/a in %d of %d trials)", load.NaNs, n)
		}
		fmt.Println()
	}
	if emitErr != nil {
		return fmt.Errorf("per-trial streaming failed (metrics above are complete): %w", emitErr)
	}
	return loopFreedomErr(p.Protocol, ts.Results)
}

// loopFreedomErr fails a run of a protocol that claims loop-freedom
// (routing.LoopFree) when any of its trials recorded a successor cycle.
// Other protocols' cycles are measurements: printed, never an error.
func loopFreedomErr(proto scenario.ProtocolName, results []scenario.Result) error {
	if !routing.LoopFree(string(proto)) {
		return nil
	}
	violations := 0
	for _, r := range results {
		violations += len(r.LoopErrors)
	}
	if violations == 0 {
		return nil
	}
	return fmt.Errorf("%s claims loop-freedom, but -check recorded %d violation(s)", proto, violations)
}

// startProfiles starts CPU profiling to cpu (when non-empty) and returns a
// stop function that finishes it and writes a post-GC heap profile to mem
// (when non-empty). Either path may be empty independently.
func startProfiles(cpu, mem string) (func() error, error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				return err
			}
			defer f.Close()
			// Collect garbage first so the profile shows live steady-state
			// objects, not whatever the last trial left unreclaimed.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// runWorker pulls and runs leased job batches from an slrserve
// coordinator until the sweep is done. crash injects the lease-expiry
// failure the coordinator must tolerate: lease a batch, then die with the
// kill -9 exit status without acknowledging anything.
func runWorker(url, id string, batch int, poll time.Duration, crash bool) error {
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &sweepd.Worker{URL: url, ID: id, Batch: batch, Poll: poll, Progress: os.Stderr}
	if crash {
		w.OnLease = func(jobs []runner.Job) error {
			fmt.Fprintf(os.Stderr, "%s: leased %d jobs, exiting 137 without acknowledging (crash injection)\n", id, len(jobs))
			os.Exit(137)
			return nil
		}
	}
	fmt.Fprintf(os.Stderr, "%s: pulling from %s (batch %d)\n", id, url, batch)
	return w.Run()
}

// checkResumable reads the file without modifying it and refuses a resume
// whose salvageable records come from a different configuration than p's
// trial list: another protocol or pause, or seeds outside [p.Seed,
// p.Seed+trials). slrsim runs exactly one configuration, so such records
// can only mean the wrong file or the wrong flags. A missing file is a
// cold start; salvage damage is left for ResumeJSONL's own refuse/repair
// logic. The extra read-and-parse before ResumeJSONL re-reads the file is
// the price of refusing BEFORE anything is truncated or repaired.
func checkResumable(path string, p scenario.Params, trials int) error {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	recs, _, _ := runner.SalvageRecords(f)
	for _, rec := range recs {
		if rec.Protocol != string(p.Protocol) || rec.PauseSeconds != p.Pause.Seconds() {
			return fmt.Errorf("%s holds a %s pause=%gs record, but this run is %s pause=%gs; not resumable with these flags",
				path, rec.Protocol, rec.PauseSeconds, p.Protocol, p.Pause.Seconds())
		}
		if rec.Seed < p.Seed || rec.Seed >= p.Seed+int64(trials) {
			return fmt.Errorf("%s holds a seed=%d record, but this run covers seeds %d..%d; not resumable with these flags",
				path, rec.Seed, p.Seed, p.Seed+int64(trials)-1)
		}
	}
	return nil
}
