.PHONY: all build test race lint fmt bench bench-baseline perf perf-selfcheck perf-smoke

all: build lint test

build:
	go build ./...

test:
	go test -shuffle=on ./...

# The second run repeats the event-driven wait tests (barrier release, SSP
# stall, kill, join) under the race detector: a lost wake-up shows up as a
# wait that only its deadline ends.
race:
	go test -race ./...
	go test -race -count=20 -run 'Barrier|Stall|Kill|Join' ./internal/fabric/stream/ ./internal/consistency/

# lint mirrors the CI gate: gofmt must be clean, go vet must pass, and
# maltlint (the project's own facts-based analyzers, including _test.go
# variants) must exit 0. Run `go run ./cmd/maltlint -json ./...` for
# machine-readable findings.
lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	go vet ./...
	go run ./cmd/maltlint ./...

fmt:
	gofmt -w .

bench:
	go test -run='^$$' -bench=. -benchtime=1x ./...

# The canonical -exp list for the CI bench-regression gate. Regenerate the
# checked-in baseline with this target when a change legitimately moves the
# modeled numbers, and review the diff: only the metrics your change
# explains should move (elapsed_sec and wall_* churn is expected — they are
# informational and never gated).
BENCH_EXPERIMENTS = pipeline,gather,fig13,saturation,saturation-wall,allreduce,ablation-queue,ablation-interleave,elastic,overlap,compression

bench-baseline:
	go run ./cmd/maltbench -exp $(BENCH_EXPERIMENTS) -json > BENCH_BASELINE.json

# maltperf (benchmark/) is a nested module that compiles against compress,
# core, vol, dstorm and stream, so `go build ./...` and `go test ./...` here
# never see it. perf-smoke is the fence: it fails when a signature change in
# this module breaks the benchmark (CI runs it). perf prints every workload's
# end-to-end metrics; perf-selfcheck runs the benchmark against itself to
# show the box's A/A noise next to the bounds. See benchmark/README.md.
perf:
	bash benchmark/run.sh --workload all

perf-selfcheck:
	bash benchmark/run.sh --selfcheck

perf-smoke:
	cd benchmark && go vet ./... && go test ./... && go run malt/cmd/maltlint ./...
