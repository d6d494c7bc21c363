package runner

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/scenario"
	"slr/internal/traffic"
)

// tinyParams is a fast full-stack scenario (12 nodes, 15 s) for runner
// tests.
func tinyParams(proto scenario.ProtocolName, seed int64) scenario.Params {
	p := scenario.DefaultParams(proto, 0, seed)
	p.Nodes = 12
	p.Terrain = geo.Terrain{Width: 700, Height: 300}
	p.Duration = 15 * time.Second
	p.Traffic = traffic.Params{Flows: 3, PacketSize: 512, Rate: 4, MeanLife: 10 * time.Second}
	return p
}

func TestTrialJobsSeeding(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 100), 4)
	if len(jobs) != 4 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.Index != i || j.Trial != i || j.Params.Seed != 100+int64(i) {
			t.Fatalf("job %d = {Index:%d Trial:%d Seed:%d}", i, j.Index, j.Trial, j.Params.Seed)
		}
	}
}

func TestGridJobsLayout(t *testing.T) {
	protos := []scenario.ProtocolName{scenario.SRP, scenario.AODV}
	pauses := []float64{0, 0.5, 1}
	jobs := GridJobs(protos, pauses, 2, 7, func(proto scenario.ProtocolName, pf float64, seed int64) scenario.Params {
		p := tinyParams(proto, seed)
		p.Pause = time.Duration(pf * float64(p.Duration))
		return p
	})
	if len(jobs) != 2*3*2 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	// Protocol-major, then pause, then trial; seeds restart per point.
	if jobs[0].Params.Protocol != scenario.SRP || jobs[11].Params.Protocol != scenario.AODV {
		t.Fatal("grid not protocol-major")
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		if j.Params.Seed != 7+int64(j.Trial) {
			t.Fatalf("job %d seed = %d, want %d", i, j.Params.Seed, 7+int64(j.Trial))
		}
	}
}

// TestRunnerMatchesSerial is the determinism regression test of the
// runner: for the same seeds, results must be identical
// to the serial scenario.RunTrials path, whatever the worker count. OLSR
// is included because it is the protocol most sensitive to incidental
// ordering (MPR tie-breaks), so it would surface any nondeterminism the
// scheduler introduced.
func TestRunnerMatchesSerial(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.OLSR} {
		p := tinyParams(proto, 40)
		const trials = 5
		serial := scenario.RunTrials(p, trials)
		for _, workers := range []int{1, 2, 7} {
			results, err := Run(TrialJobs(p, trials), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", proto, workers, err)
			}
			if !reflect.DeepEqual(serial.Results, results) {
				t.Fatalf("%s workers=%d: results diverge from serial path\nserial: %+v\nrunner: %+v",
					proto, workers, serial.Results, results)
			}
		}
	}
}

func TestRunResultsInJobOrder(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 300), 6)
	results, err := Run(jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Seed != 300+int64(i) {
			t.Fatalf("results[%d].Seed = %d, want %d", i, r.Seed, 300+int64(i))
		}
		if r.DataSent == 0 {
			t.Fatalf("results[%d] looks unrun: %+v", i, r)
		}
	}
}

func TestRunEmptyJobList(t *testing.T) {
	results, err := Run(nil, Options{})
	if err != nil || len(results) != 0 {
		t.Fatalf("Run(nil) = %v, %v", results, err)
	}
	// A zero-job run (an out-of-range shard slice, a fully-resumed file)
	// still flushes emitters: the CSV gets its header row, not 0 bytes.
	var buf bytes.Buffer
	if _, err := Run(nil, Options{Emitters: []Emitter{NewCSV(&buf)}}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "protocol,") {
		t.Fatalf("empty run left an unflushed CSV: %q", buf.String())
	}
}

// TestSinksObserveEveryTrial checks that every job reaches every sink
// exactly once, with one worker, with fewer workers than jobs, and with
// more workers than jobs.
func TestSinksObserveEveryTrial(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testSinksObserveEveryTrial(t, workers)
		})
	}
}

func testSinksObserveEveryTrial(t *testing.T, workers int) {
	var jsonl, csvBuf, progress bytes.Buffer
	jobs := TrialJobs(tinyParams(scenario.SRP, 50), 3)
	seen := make([]int, len(jobs))
	_, err := Run(jobs, Options{
		Workers:  workers,
		Progress: &progress,
		Emitters: []Emitter{NewJSONL(&jsonl), NewCSV(&csvBuf)},
		OnResult: func(j Job, _ scenario.Result) { seen[j.Index]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("OnResult saw job %d %d times, want once: %v", i, c, seen)
		}
	}
	if got := strings.Count(progress.String(), "\n"); got != len(jobs) {
		t.Fatalf("progress lines = %d, want %d:\n%s", got, len(jobs), progress.String())
	}

	// JSONL: one parseable record per line, all seeds present.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), len(jobs))
	}
	seeds := map[int64]bool{}
	for _, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		if rec.Protocol != "SRP" || rec.DataSent == 0 {
			t.Fatalf("implausible record %+v", rec)
		}
		seeds[rec.Seed] = true
	}
	for i := 0; i < len(jobs); i++ {
		if !seeds[50+int64(i)] {
			t.Fatalf("jsonl missing seed %d: %v", 50+i, seeds)
		}
	}

	// CSV: header plus one row per trial, same column count throughout.
	rows, err := csv.NewReader(&csvBuf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(jobs)+1 {
		t.Fatalf("csv rows = %d, want %d", len(rows), len(jobs)+1)
	}
	if rows[0][0] != "protocol" || len(rows[0]) != len(csvHeader) {
		t.Fatalf("csv header = %v", rows[0])
	}
}

// countingEmitter fails every Emit after `failAt` calls and records how
// often the runner keeps knocking.
type countingEmitter struct {
	emits, flushes int
	failAt         int
}

func (e *countingEmitter) Emit(Job, scenario.Result) error {
	e.emits++
	if e.failAt > 0 && e.emits >= e.failAt {
		return errors.New("sink broke")
	}
	return nil
}

func (e *countingEmitter) Flush() error {
	e.flushes++
	return nil
}

// TestEmitterDisabledAfterFirstError is the failure-path regression test:
// a broken sink (full disk, closed pipe) must be abandoned after its first
// error — not hammered with every remaining trial, interleaving partial
// lines — while healthy sinks keep streaming and the sweep completes.
func TestEmitterDisabledAfterFirstError(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 70), 4)
	broken := &countingEmitter{failAt: 2}
	healthy := &countingEmitter{}
	results, err := Run(jobs, Options{
		Workers:  2,
		Emitters: []Emitter{broken, healthy},
	})
	if err == nil || err.Error() != "sink broke" {
		t.Fatalf("Run error = %v, want the sink's first error", err)
	}
	if broken.emits != 2 {
		t.Fatalf("broken emitter saw %d Emit calls after failing on its 2nd, want exactly 2", broken.emits)
	}
	if broken.flushes != 0 {
		t.Fatalf("broken emitter was flushed %d times after failing", broken.flushes)
	}
	if healthy.emits != len(jobs) || healthy.flushes != 1 {
		t.Fatalf("healthy emitter saw %d emits / %d flushes, want %d / 1", healthy.emits, healthy.flushes, len(jobs))
	}
	for i, r := range results {
		if r.DataSent == 0 {
			t.Fatalf("results[%d] looks unrun despite emitter failure: %+v", i, r)
		}
	}
}
