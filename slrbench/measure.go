package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerUnits gives every per-layer metric its unit; runTraceMode and
// foldProfile produce exactly these names.
var layerUnits = map[string]string{
	"sim.events": "count", "sim.ns_per_event": "ns", "sim.cpu_share": "frac",
	"radio.frames": "count", "radio.collisions": "count",
	"radio.linkrange.calls": "count", "radio.linkrange.s": "s", "radio.rx.calls": "count",
	"radio.candidates_per_frame": "count", "radio.audible_ratio": "frac",
	"radio.cpu_share": "frac", "math.cpu_share": "frac",
	"mac.rx.self_s": "s", "mac.tx_unicast": "count", "mac.tx_broadcast": "count",
	"mac.retries": "count", "mac.drops": "count", "mac.cpu_share": "frac",
	"netstack.send.calls": "count", "netstack.send.self_s": "s", "netstack.cpu_share": "frac",
	"routing.recv_control.calls": "count", "routing.recv_control.s": "s",
	"routing.recv_data.calls": "count", "routing.recv_data.s": "s",
	"routing.originate.calls": "count", "routing.originate.s": "s",
	"routing.data_failed.calls": "count", "routing.control_tx": "count", "routing.cpu_share": "frac",
	"mobility.position.calls": "count", "mobility.position.s": "s", "mobility.cpu_share": "frac",
	"runtime.alloc_mb": "MiB", "runtime.mallocs": "count", "runtime.gc_cycles": "count",
	"runtime.maps_cpu_share": "frac", "runtime.gc_cpu_share": "frac",
	"runner.busy_frac": "frac", "runner.trial_p50_s": "s", "runner.trial_max_s": "s",
	"trace.overhead_frac": "frac",
	"fail_frac":           "frac",
}

func loadDigests() (map[string]map[string][]string, error) {
	var d map[string]map[string][]string
	if err := json.Unmarshal(digestFile, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// mismatches counts the trials whose digest differs from want; a trial
// with no counterpart counts as a mismatch.
func mismatches(got, want []string, trials int) int {
	bad := 0
	for i := 0; i < trials; i++ {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			bad++
		}
	}
	return bad
}

// failures counts the failed trials of one batch: records that differ
// from the committed digests want and, in a traced run, traced records
// that differ from the untraced ones.
func failures(out childOutput, want []string, trials int, traced bool) int {
	bad := mismatches(out.Batch.Digests, want, trials)
	if traced {
		bad += mismatches(out.TracedDigests, out.Batch.Digests, trials)
	}
	return bad
}

// spawn runs one batch in a child process and decodes its output.
func spawn(ctx context.Context, w workload, seed int64, traced bool, stderr io.Writer) (childOutput, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOutput{}, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10), "-trace", tr)
	cmd.Stderr = stderr
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return childOutput{}, fmt.Errorf("%s batch: %w", w.name, err)
	}
	var co childOutput
	if err := json.Unmarshal(out, &co); err != nil {
		return childOutput{}, fmt.Errorf("%s batch output: %w", w.name, err)
	}
	return co, nil
}

// batchSeconds is the nominal host cost of one batch on a 2-vCPU machine;
// a run of --seconds measures max(1, seconds/batchSeconds) batches. The
// count depends only on the arguments, so a seed always names the same
// inputs.
const batchSeconds = 12

// measure runs the workload's batches and prints the report. Batch i runs
// at scenario seed seed+i, folded onto the committed seeds. A traced run
// is one batch.
func measure(w workload, seed int64, seconds int, traced bool, stdout, stderr io.Writer) error {
	all, err := loadDigests()
	if err != nil {
		return err
	}
	batches := max(1, seconds/batchSeconds)
	if traced {
		batches = 1
	}

	ctx, cancel := context.WithDeadline(context.Background(), now().Add(runLimit))
	defer cancel()
	rep := report{Metrics: map[string]metric{}}
	var done []batchResult
	var last childOutput
	for i := 0; i < batches; i++ {
		s := scenarioSeed(seed + int64(i))
		jobs, err := w.jobs(s)
		if err != nil {
			return err
		}
		n := len(jobs)
		want := all[w.name][strconv.FormatInt(s, 10)]
		rep.Attempted += n
		if traced {
			rep.Attempted += n // the traced batch's trials
		}
		out, err := spawn(ctx, w, s, traced, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "slrbench: %v\n", err)
			rep.Failed += n
			if traced {
				rep.Failed += n
			}
			break
		}
		rep.Failed += failures(out, want, n, traced)
		b := out.Batch
		fmt.Fprintf(stderr, "slrbench: %s seed %d: wall %.3f s, cpu %.3f s, setup %.4f s, rss %.1f MiB\n",
			w.name, s, b.Wall, b.CPU, b.Setup, b.PeakRSS)
		done = append(done, b)
		last = out
	}
	rep.Correct = rep.Failed == 0

	if traced {
		for k, v := range last.Layers {
			rep.Metrics[k] = metric{v, layerUnits[k]}
		}
		rep.Metrics["fail_frac"] = metric{float64(rep.Failed) / float64(rep.Attempted), "frac"}
	} else {
		pick := func(f func(batchResult) float64) float64 {
			if len(done) == 0 {
				return 0
			}
			xs := make([]float64, len(done))
			for i, b := range done {
				xs[i] = f(b)
			}
			return median(xs)
		}
		rep.Metrics["wall_s"] = metric{pick(func(b batchResult) float64 { return b.Wall }), "s"}
		rep.Metrics["cpu_s"] = metric{pick(func(b batchResult) float64 { return b.CPU }), "s"}
		rep.Metrics["setup_s"] = metric{pick(func(b batchResult) float64 { return b.Setup }), "s"}
		rep.Metrics["peak_rss_mb"] = metric{pick(func(b batchResult) float64 { return b.PeakRSS }), "MiB"}
		rep.Metrics["ok_frac"] = metric{1 - float64(rep.Failed)/float64(rep.Attempted), "frac"}
	}
	return json.NewEncoder(stdout).Encode(rep)
}

// printDigests reruns every workload on every committed scenario seed,
// through the same untraced path measure checks, and prints the digest
// table digests.json holds.
func printDigests(stdout, stderr io.Writer) error {
	all := map[string]map[string][]string{}
	for _, w := range workloads {
		all[w.name] = map[string][]string{}
		for seed := int64(1); seed <= committedSeeds; seed++ {
			jobs, err := w.jobs(seed)
			if err != nil {
				return err
			}
			b, err := runBatch(jobs)
			if err != nil {
				return err
			}
			all[w.name][strconv.FormatInt(seed, 10)] = b.Digests
			fmt.Fprintf(stderr, "slrbench: %s seed %d: wall %.3f s\n", w.name, seed, b.Wall)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	return enc.Encode(all)
}
