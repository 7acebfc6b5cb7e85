GO ?= go

.PHONY: build test bench bench-report race vet fmt staticcheck check trace-demo corridor-demo grid-demo chaos-demo serve-demo policy-demo perfbench-test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race runs the full suite under the race detector — required for any
## change touching internal/parallel or the experiment drivers.
race:
	$(GO) test -race ./...

## bench runs the paper-number and per-layer micro-benchmarks of every
## package; the end-to-end workloads are perfbench's (see bench-report).
bench:
	$(GO) test -bench . -benchmem -run '^$$' ./...

## bench-report runs the repository benchmark (BENCHMARK.json: every
## workload untraced at seeds 11-15, then traced at seed 11) and writes
## median, min and max per end-to-end metric, with nproc and commit, to the
## next unused BENCH_<n>.json, so committed records are never overwritten
## (run `go run ./cmd/benchreport -label <text>` to label it). It takes
## about 6-7 minutes and fails, writing nothing, on any failed run.
bench-report:
	$(GO) run ./cmd/benchreport

## policy-demo is the scheduler-registry acceptance gate: each of the new
## policy families (dot, signalized, auction) drives a 2x2 grid of routed
## journeys; crossroads-sim exits non-zero if any timed policy records a
## collision — or, for dot and auction, an incomplete journey (fixed-time
## signals may legitimately strand a queue remnant at cutoff).
policy-demo:
	$(GO) run ./cmd/crossroads-sim -grid 2x2 -seglen 12 -n 60 -seed 42 -workers 0 -policy crossroads,dot,signalized,auction -policy-opt dot.grid=12 -policy-opt signalized.green=8

## trace-demo runs a tiny traced sweep and validates the JSONL output
## against the schema — the end-to-end check for the observability layer.
trace-demo:
	$(GO) run ./cmd/crossroads-sim -n 8 -seed 7 -workers 1 -scale -trace trace-demo.jsonl
	$(GO) run ./cmd/tracecheck trace-demo.jsonl
	@rm -f trace-demo.jsonl

## corridor-demo exercises the multi-IM engine end to end: a traced
## 3-intersection corridor run validated against the trace schema, plus a
## 2x2 grid smoke run.
corridor-demo:
	$(GO) run ./cmd/crossroads-sim -corridor 3 -n 16 -seed 7 -scale -noise -trace corridor-demo.jsonl
	$(GO) run ./cmd/tracecheck corridor-demo.jsonl
	@rm -f corridor-demo.jsonl
	$(GO) run ./cmd/crossroads-sim -grid 2x2 -n 12 -seed 7 -scale -noise

## grid-demo runs the parallel DES kernel end to end on a 3x3 grid with
## real inter-node segments; crossroads-sim exits non-zero if any
## coordinated policy records a collision or an incomplete journey, so the
## target doubles as the parallel-kernel acceptance gate.
grid-demo:
	$(GO) run ./cmd/crossroads-sim -grid 3x3 -seglen 80 -kernel parallel -n 60 -seed 42 -workers 0

## chaos-demo runs the fault-injection robustness matrix (every named
## scenario x every policy x seeds 1-3) and fails on any collision,
## buffer violation, or stranded vehicle in the coordinated policies,
## then validates a traced mixed-fault cell against the trace schema.
chaos-demo:
	$(GO) run ./cmd/crossroads-sim -faults matrix -seed 1 -workers 0
	$(GO) run ./cmd/crossroads-sim -faults mix -seed 1 -workers 0 -trace chaos-demo.jsonl
	$(GO) run ./cmd/tracecheck chaos-demo.jsonl
	@rm -f chaos-demo.jsonl

## serve-demo is the serve-mode acceptance gate, in two acts. First a
## single-intersection server takes a closed-loop v1 burst; then a 2x2
## sharded server takes a v2 grid run of routed multi-leg journeys. In
## both, loadgen exits non-zero on any decode error, protocol error, or
## dropped connection.
serve-demo:
	$(GO) build -o serve-demo-bin ./cmd/crossroads-serve
	$(GO) build -o loadgen-demo-bin ./cmd/loadgen
	@rm -f serve-demo.sock serve-grid.sock
	@set -e; \
	./serve-demo-bin -uds ./serve-demo.sock & \
	SERVE_PID=$$!; \
	sleep 1; \
	./loadgen-demo-bin -addr ./serve-demo.sock -mode closed -conns 4 -duration 5s; \
	STATUS=$$?; \
	kill -TERM $$SERVE_PID; \
	wait $$SERVE_PID || true; \
	if [ $$STATUS -eq 0 ]; then \
		./serve-demo-bin -uds ./serve-grid.sock -grid 2x2 -seglen 3 & \
		SERVE_PID=$$!; \
		sleep 1; \
		./loadgen-demo-bin -addr ./serve-grid.sock -grid 2x2 -conns 4 -rate 1 -duration 5s; \
		STATUS=$$?; \
		kill -TERM $$SERVE_PID; \
		wait $$SERVE_PID || true; \
	fi; \
	rm -f serve-demo-bin loadgen-demo-bin serve-demo.sock serve-grid.sock; \
	exit $$STATUS

vet:
	$(GO) vet ./...

## perfbench-test vets and tests the benchmark module. perfbench is a
## module of its own that imports the program's internal packages, so the
## root `go test ./...` never builds it; this target catches an API break
## before the benchmark pipeline does.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## staticcheck runs honnef.co/go/tools over the whole module. The tool is
## not vendored, so the target fetches it via `go run` and needs network
## access; CI runs it on every push, offline checkouts fall back to
## `make vet`.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: vet fmt race
