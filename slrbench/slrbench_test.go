package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"testing"

	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

// tinyJobs is tiny-smoke (examples/scenarios/tiny-smoke.json) under every
// protocol of the paper.
func tinyJobs(t *testing.T) []runner.Job {
	t.Helper()
	var jobs []runner.Job
	for i, proto := range scenario.AllProtocols {
		s := &spec.ScenarioSpec{
			Version:         spec.Version,
			Name:            "tiny-smoke",
			Protocol:        string(proto),
			Nodes:           12,
			Terrain:         spec.Terrain{WidthM: 600, HeightM: 400},
			DurationSeconds: 15,
			Seed:            1,
			Radio:           spec.Radio{RangeM: 250, Propagation: "shadowing"},
			Mobility:        spec.Mobility{Model: "gauss-markov", MinSpeedMps: 1, MaxSpeedMps: 10},
			Traffic:         spec.Traffic{Model: "poisson", Flows: 3, PacketSizeBytes: 256, RatePps: 4, MeanLifeSeconds: 30},
		}
		p, err := s.Params()
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, runner.Job{Index: i, Params: p})
	}
	return jobs
}

// TestTracedRecordsMatchUntraced is the transparency gate: the traced
// wiring, with a wrapper at every seam, must reproduce scenario.Run's
// records byte for byte under every protocol, and so must the untraced
// batch with its set-up hook.
func TestTracedRecordsMatchUntraced(t *testing.T) {
	jobs := tinyJobs(t)
	plain := make([]scenario.Result, len(jobs))
	for i, j := range jobs {
		plain[i] = scenario.Run(j.Params)
	}
	want, err := digests(jobs, plain)
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := runBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runTracedBatch(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		proto := j.Params.Protocol
		if untraced.Digests[i] != want[i] {
			t.Errorf("%s: untraced batch record %s, scenario.Run record %s", proto, untraced.Digests[i], want[i])
		}
		if traced.digests[i] != want[i] {
			t.Errorf("%s: traced record %s, scenario.Run record %s", proto, traced.digests[i], want[i])
		}
	}
	for s := span(0); s < numSpans; s++ {
		if s != spanDataFailed && traced.t.calls[s] == 0 {
			t.Errorf("span %d never closed", s)
		}
	}
	if untraced.Setup <= 0 || untraced.Setup >= untraced.Wall {
		t.Errorf("setup %.6f s outside (0, wall %.6f s)", untraced.Setup, untraced.Wall)
	}
}

// TestWrapperForwardsOptionalInterfaces checks that each protocol's
// wrapper has exactly the optional interfaces the protocol has, and
// forwards them.
func TestWrapperForwardsOptionalInterfaces(t *testing.T) {
	for _, proto := range scenario.AllProtocols {
		in, err := routing.Build(routing.Spec{Name: string(proto)})
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapProtocol(in, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		pairs := []struct {
			name     string
			has, got bool
		}{
			{"SuccessorsOf", is[successorLister](in), is[successorLister](w)},
			{"SeqnoDelta", is[seqnoReporter](in), is[seqnoReporter](w)},
			{"ControlBreakdown", is[controlReporter](in), is[controlReporter](w)},
			{"MaxDenominator", is[denomReporter](in), is[denomReporter](w)},
		}
		for _, p := range pairs {
			if p.has != p.got {
				t.Errorf("%s: protocol has %s = %v, wrapper %v", proto, p.name, p.has, p.got)
			}
		}
		if sr, ok := w.(seqnoReporter); ok && sr.SeqnoDelta() != in.(seqnoReporter).SeqnoDelta() {
			t.Errorf("%s: SeqnoDelta not forwarded", proto)
		}
		if dr, ok := w.(denomReporter); ok && dr.MaxDenominator() != in.(denomReporter).MaxDenominator() {
			t.Errorf("%s: MaxDenominator not forwarded", proto)
		}
	}
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// TestPerturbedDigestIsAFailure proves the correctness check can fail: a
// batch whose record differs from the committed digest in one trial, or
// whose traced record differs from the untraced one, reports that trial.
func TestPerturbedDigestIsAFailure(t *testing.T) {
	all, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	// A five-trial batch made of committed records.
	var want []string
	for seed := 1; seed <= 5; seed++ {
		want = append(want, all["olsr-paper"][strconv.Itoa(seed)]...)
	}
	if len(want) != 5 {
		t.Fatalf("committed olsr-paper digests for seeds 1-5: %d, want 5", len(want))
	}
	got := append([]string(nil), want...)
	out := childOutput{Batch: batchResult{Digests: got}, TracedDigests: got}
	if n := failures(out, want, len(want), true); n != 0 {
		t.Fatalf("identical records: %d failures", n)
	}

	perturbed := append([]string(nil), want...)
	perturbed[3] = "0000000000000000"
	out.Batch.Digests = perturbed
	out.TracedDigests = perturbed
	if n := failures(out, want, len(want), false); n != 1 {
		t.Errorf("one perturbed record: %d failures, want 1", n)
	}
	out.Batch.Digests = got
	if n := failures(out, want, len(want), true); n != 1 {
		t.Errorf("traced record differing from untraced: %d failures, want 1", n)
	}
	if n := failures(childOutput{}, want, len(want), false); n != len(want) {
		t.Errorf("missing records: %d failures, want %d", n, len(want))
	}
	if n := failures(out, nil, len(want), false); n != len(want) {
		t.Errorf("no committed digests: %d failures, want %d", n, len(want))
	}
}

// TestCommittedDigestsCoverEverySeed checks digests.json holds one digest
// per trial for every workload and every seed the input seed folds onto.
func TestCommittedDigestsCoverEverySeed(t *testing.T) {
	all, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for seed := int64(1); seed <= committedSeeds; seed++ {
			jobs, err := w.jobs(seed)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(all[w.name][strconv.FormatInt(seed, 10)]); got != len(jobs) {
				t.Errorf("%s seed %d: %d digests for %d trials", w.name, seed, got, len(jobs))
			}
		}
	}
}

func TestScenarioSeed(t *testing.T) {
	for in, want := range map[int64]int64{1: 1, 10: 10, 11: 1, 25: 5, 0: 10, -1: 9} {
		if got := scenarioSeed(in); got != want {
			t.Errorf("scenarioSeed(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"slr/internal/radio.(*Channel).Transmit":                    "slr/internal/radio",
		"math.Log":                                                  "math",
		"runtime.mapaccess2_fast64":                                 "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":              "internal/runtime/maps",
		"slices.SortFunc[go.shape.[]slr/internal/radio.hit,go.int]": "slices",
		"slr/internal/registry.(*Registry[go.shape.func()]).Get":    "slr/internal/registry",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pb is a minimal protobuf encoder for building fixed test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var data []byte
	for _, v := range vs {
		data = binary.AppendUvarint(data, v)
	}
	return b.bytes(num, data)
}

// TestFoldProfile folds a small fixed profile whose shares are known.
func TestFoldProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"slr/internal/radio.(*Channel).Transmit",           // 5
		"math.Log",                                         // 6
		"slr/internal/radio.shadowing.LinkRange",           // 7
		"runtime.gcBgMarkWorker",                           // 8
		"runtime.scanobject",                               // 9
		"internal/runtime/maps.(*Map).getWithKeySmall",     // 10
		"slr/internal/routing/srp.(*Protocol).RecvControl", // 11
		"slr/internal/frac.Mediant",                        // 12
		"slr/internal/sim.(*Simulator).Step",               // 13
	}
	var p pb
	// sample_type: [samples/count, cpu/nanoseconds]; the cpu one counts.
	p = p.bytes(profSampleType, pb{}.varint(valueTypeType, 1).varint(2, 2))
	p = p.bytes(profSampleType, pb{}.varint(valueTypeType, 3).varint(2, 4))
	for id := uint64(5); id <= 13; id++ {
		p = p.bytes(profFunction, pb{}.varint(functionID, id).varint(functionName, id))
		// Location id == function id, one line each...
		if id != 6 {
			p = p.bytes(profLocation, pb{}.varint(locationID, id).bytes(locationLine, pb{}.varint(lineFunctionID, id)))
		}
	}
	// ...except location 6: math.Log inlined into LinkRange, leaf first.
	p = p.bytes(profLocation, pb{}.varint(locationID, 6).
		bytes(locationLine, pb{}.varint(lineFunctionID, 6)).
		bytes(locationLine, pb{}.varint(lineFunctionID, 7)))
	for _, s := range strs {
		p = p.bytes(profStringTable, []byte(s))
	}
	// Samples (location stacks leaf first, values [count, cpu ns]);
	// total cpu = 100.
	addSample := func(cpu uint64, locs ...uint64) {
		p = p.bytes(profSample, pb{}.packed(sampleLocationID, locs...).packed(sampleValue, 1, cpu))
	}
	addSample(30, 6, 5)   // math (inlined leaf) under radio
	addSample(20, 7, 5)   // radio
	addSample(10, 9, 8)   // GC: scanobject under the mark worker
	addSample(15, 10, 11) // maps under SRP
	addSample(5, 11, 13)  // routing
	addSample(5, 12, 11)  // frac counts as routing
	addSample(15, 13)     // sim
	// A single-location sample takes the unpacked encoding.
	p = p.bytes(profSample, pb{}.varint(sampleLocationID, 5).varint(sampleValue, 1).varint(sampleValue, 0))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"math.cpu_share":         0.30,
		"radio.cpu_share":        0.20,
		"runtime.gc_cpu_share":   0.10,
		"runtime.maps_cpu_share": 0.15,
		"routing.cpu_share":      0.10,
		"sim.cpu_share":          0.15,
		"mac.cpu_share":          0,
		"netstack.cpu_share":     0,
		"mobility.cpu_share":     0,
	}
	if len(got) != len(want) {
		t.Errorf("got %d metrics, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %.4f, want %.4f", k, got[k], v)
		}
	}
	if _, err := foldProfile(gz.Bytes()[:10]); err == nil {
		t.Error("truncated profile folded without error")
	}
}

// TestTraceModeReportsEveryLayerMetric runs the per-layer run on a small
// batch and checks it yields exactly the metrics layerUnits names (all
// but fail_frac, which the parent adds).
func TestTraceModeReportsEveryLayerMetric(t *testing.T) {
	var jobs []runner.Job
	for i := 0; i < 3; i++ {
		jobs = append(jobs, tinyJobs(t)...)
	}
	out, err := runTraceMode(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for k := range layerUnits {
		if _, ok := out.Layers[k]; !ok && k != "fail_frac" {
			t.Errorf("metric %s missing", k)
		}
	}
	for k, v := range out.Layers {
		if _, ok := layerUnits[k]; !ok {
			t.Errorf("metric %s has no unit", k)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %.4f", k, v)
		}
	}
	if mismatches(out.TracedDigests, out.Batch.Digests, len(jobs)) != 0 {
		t.Error("traced records differ from untraced")
	}
}

// TestBenchmarkJSONMatchesReports checks BENCHMARK.json names exactly the
// metrics the benchmark prints, with the units it prints them in.
func TestBenchmarkJSONMatchesReports(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.PerLayer) != len(layerUnits) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layerUnits))
	}
	for _, m := range b.PerLayer {
		if u, ok := layerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, u)
		}
	}
	e2e := map[string]string{"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "frac"}
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if e2e[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, printed unit %q", m.Name, m.Unit, e2e[m.Name])
		}
	}
}
