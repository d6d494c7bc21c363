package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sweepd"
	"slr/internal/traffic"
)

func TestRunSmallScenario(t *testing.T) {
	err := run([]string{
		"-protocol", "SRP", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-seed", "1", "-check",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLoopFreedomGate pins which -check violations fail a run: those of
// the protocols that claim loop-freedom, never OLSR's or DSR's.
func TestLoopFreedomGate(t *testing.T) {
	looped := []scenario.Result{{}, {LoopErrors: []string{"t=5s: destination 0: successor cycle [4 6 4]"}}}
	for _, tc := range []struct {
		proto   scenario.ProtocolName
		results []scenario.Result
		fail    bool
	}{
		{scenario.SRP, looped, true},
		{scenario.LDR, looped, true},
		{scenario.AODV, looped, true},
		{scenario.OLSR, looped, false},
		{scenario.DSR, looped, false},
		{scenario.SRP, []scenario.Result{{}, {}}, false},
	} {
		err := loopFreedomErr(tc.proto, tc.results)
		if (err != nil) != tc.fail {
			t.Errorf("%s with %d trials: err = %v, want failure %v", tc.proto, len(tc.results), err, tc.fail)
		}
	}
}

// TestRunCheckReportsOLSRLoops drives -check end to end on a run where
// OLSR has a transient successor cycle: it is printed, and the run still
// succeeds because OLSR does not claim loop-freedom.
func TestRunCheckReportsOLSRLoops(t *testing.T) {
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-protocol", "OLSR", "-check", "-trials", "1"})
	os.Stdout = saved
	if err != nil {
		t.Fatalf("OLSR -check run failed: %v", err)
	}
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "VIOLATION") {
		t.Fatalf("no violation printed; the scenario no longer exercises the gate:\n%s", out)
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	err := run([]string{"-protocol", "RIP"})
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLowercaseProtocol(t *testing.T) {
	err := run([]string{
		"-protocol", "olsr", "-nodes", "6", "-width", "400", "-height", "200",
		"-duration", "5s", "-flows", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiTrial(t *testing.T) {
	err := run([]string{
		"-protocol", "AODV", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSpecFile(t *testing.T) {
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecWithFlagOverrides(t *testing.T) {
	// Shrink the built-in paper spec down to test size via explicit flags.
	err := run([]string{
		"-spec", "paper-default", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-trials", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecUnknown(t *testing.T) {
	if err := run([]string{"-spec", "no-such-spec"}); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestRunJSONLShardResume drives the slrsim streaming path: -jsonl
// refuses to clobber, -shard writes only its slice, and -resume completes
// a truncated stream without re-running salvaged trials.
func TestRunJSONLShardResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-protocol", "SRP", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "2",
	}
	out := filepath.Join(dir, "out.jsonl")
	if err := run(append(base, "-jsonl", out)); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(golden, []byte("\n")) != 2 {
		t.Fatalf("want 2 records:\n%s", golden)
	}

	if err := run(append(base, "-jsonl", out)); err == nil || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("clobber not refused: %v", err)
	}
	if err := run(append(base, "-jsonl", out, "-force")); err != nil {
		t.Fatalf("-force: %v", err)
	}
	if err := run(append(base, "-resume")); err == nil {
		t.Fatal("-resume without -jsonl accepted")
	}

	shard := filepath.Join(dir, "shard2.jsonl")
	if err := run(append(base, "-shard", "2/2", "-jsonl", shard)); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(shard); bytes.Count(b, []byte("\n")) != 1 {
		t.Fatalf("shard 2/2 of 2 trials should hold exactly 1 record:\n%s", b)
	}

	// A salvaged file from a different configuration must be refused, not
	// silently averaged into this run's summary — and refused before any
	// repair touches it, so the refused file stays byte-identical.
	preRefuse, _ := os.ReadFile(out)
	mismatch := append([]string{}, base...)
	mismatch[1] = "AODV"
	if err := run(append(mismatch, "-resume", "-jsonl", out)); err == nil || !strings.Contains(err.Error(), "not resumable") {
		t.Fatalf("cross-protocol resume: %v", err)
	}
	if postRefuse, _ := os.ReadFile(out); !bytes.Equal(postRefuse, preRefuse) {
		t.Fatal("refused cross-protocol resume modified the file")
	}

	// So must a resume whose seed range no longer covers the file's
	// records (slrsim is single-configuration; that can only be a mixup).
	if err := run(append(base, "-seed", "9", "-resume", "-jsonl", out)); err == nil || !strings.Contains(err.Error(), "not resumable") {
		t.Fatalf("shifted-seed resume: %v", err)
	}

	// Truncate mid-second-record and resume: the salvaged first line must
	// survive untouched and the file end up with both trials exactly once.
	cut := bytes.IndexByte(golden, '\n') + 1
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, golden[:cut+10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-resume", "-jsonl", trunc)); err != nil {
		t.Fatal(err)
	}
	resumed, _ := os.ReadFile(trunc)
	if !bytes.HasPrefix(resumed, golden[:cut]) {
		t.Fatalf("resume rewrote the salvaged record:\n%s", resumed)
	}
	if bytes.Count(resumed, []byte("\n")) != 2 {
		t.Fatalf("resumed file should hold exactly 2 records:\n%s", resumed)
	}
}

// TestWorkerModeRejectsScenarioFlags: jobs in -worker mode come fully
// parameterized from the coordinator, so combining -worker with scenario
// or output flags is a mixup, named flag by flag.
func TestWorkerModeRejectsScenarioFlags(t *testing.T) {
	err := run([]string{"-worker", "http://localhost:1", "-protocol", "AODV", "-jsonl", "x.jsonl"})
	if err == nil || !strings.Contains(err.Error(), "-jsonl") || !strings.Contains(err.Error(), "-protocol") {
		t.Fatalf("err = %v", err)
	}
}

// TestWorkerModeFlagTable drives the consolidated workerModeFlags
// allowlist: each run-mode flag — the dynamic checkers included — must
// be refused by name in -worker mode, while the worker's own knobs and
// profiling pass the gate.
func TestWorkerModeFlagTable(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		rejected string // flag that must be named in the error; "" = allowed
	}{
		{"check", []string{"-check"}, "-check"},
		{"ordercheck", []string{"-ordercheck"}, "-ordercheck"},
		{"protocol", []string{"-protocol", "AODV"}, "-protocol"},
		{"trials", []string{"-trials", "2"}, "-trials"},
		{"jsonl", []string{"-jsonl", "x.jsonl"}, "-jsonl"},
		{"seed", []string{"-seed", "7"}, "-seed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-worker", "http://127.0.0.1:1"}, tc.args...)
			err := run(args)
			if err == nil || !strings.Contains(err.Error(), tc.rejected) ||
				!strings.Contains(err.Error(), "-worker mode") {
				t.Fatalf("args %v: want rejection naming %s, got %v", args, tc.rejected, err)
			}
		})
	}
	// The worker's own knobs and the profiling flags must pass the gate
	// (checked against the table directly — going through run() would try
	// to reach a coordinator).
	for name := range workerModeFlags {
		if err := rejectNonWorkerFlags(map[string]bool{name: true}); err != nil {
			t.Fatalf("flag -%s should be allowed in -worker mode: %v", name, err)
		}
	}
	if err := rejectNonWorkerFlags(map[string]bool{"cpuprofile": true, "memprofile": true, "batch": true}); err != nil {
		t.Fatalf("profiling + batch should be allowed in -worker mode: %v", err)
	}
}

// TestWorkerModeDrainsCoordinator runs the real -worker code path
// against an in-process coordinator and checks the sweep completes.
func TestWorkerModeDrainsCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	p := scenario.DefaultParams(scenario.SRP, 0, 1)
	p.Nodes = 10
	p.Terrain = geo.Terrain{Width: 500, Height: 250}
	p.Duration = 5 * time.Second
	p.Traffic = traffic.Params{Flows: 2, PacketSize: 256, Rate: 4, MeanLife: 10 * time.Second}
	c, err := sweepd.New(runner.TrialJobs(p, 2), sweepd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sweepd.NewHandler(c))
	defer srv.Close()
	if err := run([]string{"-worker", srv.URL, "-worker-id", "t", "-batch", "2"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.SweepDone {
		t.Fatalf("sweep not done after worker exit: %+v", st)
	}
}
