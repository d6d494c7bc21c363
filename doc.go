// Package slr reproduces "Loop-Free Routing Using a Dense Label Set in
// Wireless Networks" (Mosko and Garcia-Luna-Aceves, ICDCS 2004): the Split
// Label Routing framework, the SRP protocol, the four baseline protocols of
// the paper's evaluation (AODV, DSR, LDR, OLSR), and the discrete-event
// wireless simulation substrate the evaluation runs on.
//
// The paper's primary contribution lives in internal/core (the SLR
// framework), internal/frac and internal/label (the dense proper-fraction
// ordinal set), and internal/routing/srp (the SRP protocol). The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's §V; cmd/experiments prints them as text tables.
//
// The evaluation substrate is built for scale: internal/sim is a
// zero-steady-state-allocation event kernel — a ladder-queue scheduler
// (amortized O(1) push/pop, FIFO on (time, seq) ties, differentially
// fuzzed against a reference heap) over pooled events with
// generation-checked timers — internal/radio finds audible sets
// through per-sender neighbour lists rebuilt once per mobility epoch
// (each link's range evaluated once per epoch, byte-identical to the
// linear reference scan), and
// internal/runner flattens the whole (protocol x pause x trial) grid into
// one job list whose workers claim jobs from a shared counter, streaming
// per-trial JSONL/CSV results as they complete. Identical seeds give
// identical results whatever the worker count — which is what lets a
// sweep span processes and crashes: -shard i/n runs a disjoint
// round-robin slice of the flattened jobs on each of n machines, -resume
// salvages the complete records of an interrupted JSONL (truncating a
// half-written tail) and re-runs only the trials whose identity key
// (protocol, pause, trial, seed) is absent, and cmd/slranalyze merges
// any number of shard files — de-duplicated on that key, short cells
// reported — into analysis output byte-identical to a single-process
// sweep. A failing emitter is disabled at its first error so the sweep
// finishes on the healthy sinks, and non-empty outputs are never
// clobbered without -resume or -force.
//
// The same determinism powers sweep-as-a-service: cmd/slrserve is an
// HTTP/JSON coordinator (internal/sweepd) that owns a sweep's flattened
// job list and leases identity-keyed job batches to pulling slrsim
// -worker processes over a versioned /v1 API whose payloads are exactly
// runner.Job and runner.Record — lease out (POST /v1/lease),
// acknowledge results as JSONL (POST /v1/records, salvage-validated and
// de-duplicated on the identity key), watch progress (GET /v1/status),
// and read the live merged analysis (GET /v1/report). A worker killed
// mid-batch loses nothing: its lease times out and the jobs return to
// the pool; every accepted record is checkpointed to the daemon's
// -jsonl file, which -resume salvages after a coordinator crash. The
// finished service's report and checkpoint are byte-identical to a
// single-process sweep of the same flags.
//
// That byte-identical contract is machine-enforced: internal/analysis
// holds four go/analysis analyzers — map-iteration order escaping into
// output or scheduling, wall-clock or global-rand use in sim-reachable
// code, float formatting outside the canonical runner.Key codec, and
// pooled values retained past their callback — which cmd/slrlint runs
// over the whole repo through go vet -vettool (make lint). Deliberate
// exceptions carry //slrlint:allow annotations with mandatory reasons.
//
// Workloads are declarative: internal/spec loads versioned JSON scenario
// files (see examples/scenarios/) that select every model by name from a
// registry — routing protocols (SRP, LDR, AODV, DSR, OLSR via
// internal/routing), mobility models (waypoint, static, gauss-markov,
// manhattan), traffic models (cbr, poisson, onoff), and radio propagation
// models (unit-disk, shadowing, rayleigh) — each with a validated
// parameter map. The routing registry's "protocol_params" section tunes
// protocol constants (hello/TC intervals, RREQ retry and TTL schedules,
// route lifetimes, SRP's label heuristics) per spec file, so
// protocol-parameter sweeps are ordinary scenario files; see
// examples/scenarios/aodv-aggressive.json. The paper's evaluation setup
// is the built-in "paper-default" spec; both cmd/slrsim and
// cmd/experiments take -spec, and -pparam overrides single constants.
//
// Measurement is a streaming pipeline: internal/metrics collects run
// totals, fixed-bucket log2 latency/hop histograms with exact
// bucket-bound percentiles, and a per-flow sent/recv/first-last-delivery
// ledger, all on an allocation-free per-packet path. Per-trial records
// are versioned and append-only ("schema": 2), and histogram merging is
// exact, so cmd/slranalyze reproduces Table I, every figure table, the
// latency-percentile table, and the shape verdicts from a sweep's JSONL
// alone — byte-identical to the in-process output, without re-simulating.
//
// The large-N tier keeps thousands-of-node scenarios tractable: OLSR's
// routing table and MPR set are cached behind structure versions and
// expiry horizons and rebuild into preallocated storage (allocation-free
// in steady state, byte-identical per seed — see internal/routing/olsr),
// its duplicate cache and neighbor/topology sweeps are expiry-ordered
// and horizon-gated, the MAC's steady-state path allocates nothing, and
// the radio channel's per-epoch position refreshes and neighbour lists
// are benchmarked at N=5000 (BenchmarkChannelTransmitLargeN). The tier has its own
// reference scenarios (examples/scenarios/manhattan-5000.json and
// manhattan-20000.json), bench family (BenchmarkLargeN, through
// N=20000), and a timeboxed 20000-node CI smoke. cmd/slrsim's
// -cpuprofile and -memprofile flags make the next outlier one flag
// away.
//
// Each trial runs the kernel as one serial loop that pops the minimum
// (time, seq) event and fires it. Parallelism is across trials —
// internal/runner's worker pool and slrserve's worker processes — never
// within one.
//
// The routing control plane shares one toolkit: internal/routing/rcommon
// owns the drop-reason vocabulary, discovery queues with retry and
// hold-down bookkeeping, RREQ/RERR rate limiters, the periodic beaconer,
// the hello/link-liveness neighbor table, and duplicate-flood
// suppression. internal/routing/rtest's conformance suite runs every
// registered protocol through a shared contract: quiet before Start,
// idempotent Start, deterministic replay at any worker count, and drops
// only from the canonical vocabulary.
package slr
