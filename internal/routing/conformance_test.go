package routing_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/netstack"
	"slr/internal/routing"
	"slr/internal/routing/rtest"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/traffic"
)

// TestRegistryCoversPaperProtocols pins the registry to the paper's
// evaluation set: every scenario.AllProtocols entry resolves, and the
// registry holds nothing else — a protocol cannot be registered without
// joining the sweep order, nor swept without being registered.
func TestRegistryCoversPaperProtocols(t *testing.T) {
	want := map[string]bool{}
	for _, p := range scenario.AllProtocols {
		want[string(p)] = true
		if err := routing.Validate(routing.Spec{Name: string(p)}); err != nil {
			t.Errorf("paper protocol %s missing from registry: %v", p, err)
		}
	}
	for _, name := range routing.Protocols() {
		if !want[name] {
			t.Errorf("registered protocol %s missing from scenario.AllProtocols", name)
		}
	}
}

// TestCaseInsensitiveLookup matches the CLI and spec behaviour of
// accepting "srp" for "SRP".
func TestCaseInsensitiveLookup(t *testing.T) {
	if _, err := routing.Build(routing.Spec{Name: "olsr"}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownProtocolAndParamsRejected exercises the two validation
// failure modes: a name outside the registry, and a typoed parameter key
// for every registered protocol.
func TestUnknownProtocolAndParamsRejected(t *testing.T) {
	if _, err := routing.Build(routing.Spec{Name: "OSPF"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	for _, name := range routing.Protocols() {
		if err := routing.Validate(routing.Spec{
			Name:   name,
			Params: map[string]float64{"definitely_not_a_knob": 1},
		}); err == nil {
			t.Errorf("%s accepted an unknown parameter", name)
		}
		if err := routing.Validate(routing.Spec{
			Name:   name,
			Params: map[string]float64{"rreq_retries": -2, "jitter_seconds": -1},
		}); err == nil {
			t.Errorf("%s accepted out-of-range parameters", name)
		}
	}
	// Conversion hazards: values that would wrap a uint32 or panic the
	// hello jitter must fail validation, not truncate or crash later.
	for _, params := range []map[string]float64{
		{"max_denom": -5},
		{"max_denom": 5e9},
		{"hello_interval_seconds": 1e-9},
	} {
		if err := routing.Validate(routing.Spec{Name: "SRP", Params: params}); err == nil {
			t.Errorf("SRP accepted hazardous params %v", params)
		}
	}
}

// tunedParams gives every protocol at least three override keys, the
// spec-file tuning contract.
var tunedParams = map[string]map[string]float64{
	"SRP":  {"rreq_retries": 4, "ttl_2": 40, "hello_interval_seconds": 2, "max_denom": 1e6},
	"LDR":  {"rreq_retries": 3, "queue_cap": 20, "min_reply_hops": 1},
	"AODV": {"active_route_timeout_seconds": 5, "local_repair": 0, "rreq_rate_limit": 20},
	"DSR":  {"cache_lifetime_seconds": 120, "routes_per_dest": 5, "reply_from_cache": 0},
	"OLSR": {"hello_interval_seconds": 1, "tc_interval_seconds": 3, "neighbor_hold_seconds": 3},
}

// TestParamOverridesBuild verifies a >= 3-key parameter map builds for
// every registered protocol — the registry side of the "a spec file can
// override at least three per-protocol parameters" contract (the spec
// side is covered in internal/spec).
func TestParamOverridesBuild(t *testing.T) {
	for _, name := range routing.Protocols() {
		params, ok := tunedParams[name]
		if !ok {
			t.Fatalf("no tuned parameter map for %s; extend tunedParams with >= 3 keys", name)
		}
		if len(params) < 3 {
			t.Fatalf("tuned parameter map for %s has %d keys, want >= 3", name, len(params))
		}
		if _, err := routing.Build(routing.Spec{Name: name, Params: params}); err != nil {
			t.Errorf("%s rejected tuned params: %v", name, err)
		}
	}
}

// TestConformance runs the shared protocol contract over every registry
// entry, at defaults and with tuned parameters.
func TestConformance(t *testing.T) {
	for _, name := range routing.Protocols() {
		t.Run(name, func(t *testing.T) {
			rtest.Conformance(t, func() netstack.Protocol {
				p, err := routing.Build(routing.Spec{Name: name})
				if err != nil {
					// Not t.Fatal: the factory runs inside nested
					// subtests, where FailNow on this t would break
					// testing's same-goroutine contract.
					panic(err)
				}
				return p
			})
		})
		t.Run(name+"/tuned", func(t *testing.T) {
			rtest.Conformance(t, func() netstack.Protocol {
				p, err := routing.Build(routing.Spec{Name: name, Params: tunedParams[name]})
				if err != nil {
					panic(err) // see above: no FailNow off this goroutine
				}
				return p
			})
		})
	}
}

// TestByteIdenticalReplayAcrossWorkers runs a small multi-trial scenario
// for every registered protocol on the trial runner at two worker
// counts and requires the serialized per-trial records to be
// byte-identical — the regression gate that protocol-parameter sweeps
// (like every other sweep) do not depend on scheduling.
func TestByteIdenticalReplayAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial replay matrix")
	}
	for _, name := range routing.Protocols() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p := scenario.Params{
				Protocol: scenario.ProtocolName(name),
				Nodes:    12,
				Terrain:  geo.Terrain{Width: 600, Height: 400},
				Range:    250,
				MaxSpeed: 10,
				Duration: 15 * time.Second,
				Seed:     1,
				Traffic: traffic.Params{
					Flows: 3, PacketSize: 256, Rate: 4, MeanLife: 30 * time.Second,
				},
				ProtoParams: tunedParams[name],
			}
			const trials = 4
			serial := jsonlBytes(t, scenario.RunTrials(p, trials))
			for _, workers := range []int{1, 4} {
				results, err := runner.Run(runner.TrialJobs(p, trials), runner.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				ts := scenario.TrialSet{Protocol: p.Protocol, Pause: p.Pause, Results: results}
				if got := jsonlBytes(t, ts); !bytes.Equal(got, serial) {
					t.Fatalf("workers=%d records differ from serial reference:\n%s\nvs\n%s",
						workers, got, serial)
				}
			}
		})
	}
}

// jsonlBytes serializes a trial set through the runner's Record form in
// seed order, the byte-stable shape the JSONL emitter writes.
func jsonlBytes(t *testing.T, ts scenario.TrialSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range ts.Results {
		rec := runner.NewRecord(runner.Job{Trial: i}, r)
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(blob)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}
