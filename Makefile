# Make targets mirror exactly what CI runs (.github/workflows/ci.yml) so
# humans and the workflow can never drift apart.

GO      ?= go
SCALE   ?= mid
WORKERS ?= 0

.PHONY: all build test race bench fmt vet lint sweep

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bench smoke: one iteration of every bench, so regressions in the bench
# harness itself surface quickly. A single cold iteration is not a
# measurement; perf claims come from the repo benchmark (slrbench/,
# declared in BENCHMARK.json). BenchmarkLargeN is skipped: its last
# recorded one-iteration pass took about 290 s, 204 s of it OLSR at
# N=20000, and CI's large-n-smoke job already covers that scale. Run it
# by hand with
#   go test -run=NONE -bench=BenchmarkLargeN -benchtime=1x -benchmem .
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x -benchmem -skip BenchmarkLargeN ./...

# The analyzer fixtures under internal/analysis/testdata are deliberately
# pathological source and sit outside the repo's gofmt gate (the go tool
# already skips testdata directories for build/vet/test on its own).
fmt:
	@out=$$(gofmt -l . | grep -v '^internal/analysis/testdata/' || true); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# slrlint: the repo's determinism analyzers (internal/analysis) behind
# the go vet unitchecker protocol. Zero unsuppressed diagnostics is the
# bar; deliberate exceptions carry //slrlint:allow <analyzer> <reason>.
lint:
	$(GO) build -o bin/slrlint ./cmd/slrlint
	$(GO) vet -vettool=$(CURDIR)/bin/slrlint ./...

# Regenerate the paper's Table I and Figures 3-7 on the trial runner
# (internal/runner). SCALE=full for the paper's exact setup (hours of CPU). -force:
# re-running the target deliberately regenerates the results files (the
# binary otherwise refuses to clobber a non-empty sweep output).
sweep:
	$(GO) run ./cmd/experiments -scale $(SCALE) -workers $(WORKERS) -force \
		-jsonl results-$(SCALE).jsonl -csv results-$(SCALE).csv
