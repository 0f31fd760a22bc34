# FRIEDA build and reproduction targets. Stdlib-only Go; no external deps.

GO ?= go

.PHONY: all build test race stress smoke-daemons check-goldens check-parent bench bench-e2e bench-smoke bench-scale profile-scale vet fmt reproduce ablations examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeat the race-detector tests of PKGS (default: the simulator's netsim and
# simrun) 200 times at GOMAXPROCS 1 and 2, beside a CPU hog the script
# starts and stops itself, and report the failures per test
# (scripts/stress.sh); e.g. `make stress PKGS="./internal/core ."`.
PKGS ?= ./internal/netsim ./internal/simrun
stress:
	GO=$(GO) sh scripts/stress.sh $(PKGS)

# README's distributed recipe as separate processes over TCP loopback
# (datagen, master, two workers, controller), then the frieda launcher from a
# -config job file; every process must exit 0 with `0 failed` reported
# (scripts/smoke-daemons.sh).
smoke-daemons:
	GO=$(GO) sh scripts/smoke-daemons.sh

# Validate goldens/ (see goldens/README.md): every committed sweep, and
# fig6a's attribution report and metrics CSV, at both pool widths, byte for
# byte. The durability and masterfail sweeps run at full scale, so each run
# sits under `timeout 60`: a repair scan that costs O(known files) again
# (25 s and 18 s before the under-replication index) fails here as a
# timeout (cmp sees the cut-off output). The scale sweep (256 to 65,536
# workers) is compared on its simulated columns only — workers,
# bytes_moved_gb, makespan_sec, sim_events — since the rest are wall clock.
check-goldens:
	$(GO) build -o friedabench ./cmd/friedabench
	@for p in 1 8; do \
		for e in all ablations durability masterfail stragglers ctrlplane; do \
			echo "$$e -parallel $$p"; \
			timeout 60 ./friedabench -exp $$e -parallel $$p | cmp - goldens/exp_$$e.txt || exit 1; \
		done; \
		echo "scale -parallel $$p"; \
		timeout 60 ./friedabench -exp scale -parallel $$p | awk '{print $$1, $$2, $$4, $$6}' | cmp - goldens/exp_scale.txt || exit 1; \
		echo "fig6a -attrib -parallel $$p"; \
		timeout 60 ./friedabench -exp fig6a -attrib -parallel $$p | cmp - goldens/fig6a_attrib.txt || exit 1; \
		echo "fig6a -metrics -parallel $$p"; \
		timeout 60 ./friedabench -exp fig6a -metrics metrics-golden.csv -parallel $$p > /dev/null || exit 1; \
		cmp metrics-golden.csv goldens/fig6a_metrics.csv || exit 1; \
	done; rm -f metrics-golden.csv

# Compare, byte for byte, the outputs goldens/ does not pin against a
# friedabench built at BASE (a git ref; default HEAD, so a clean tree compares
# with itself): fig6a's trace JSON, the stragglers attribution report, the
# durability, masterfail and stragglers metrics CSVs, and fig6a's Gantt
# summary, each with its stdout. BASE is checked out in a temporary git
# worktree, removed again on exit; e.g. `make check-parent BASE=HEAD~`.
# Every output is compared, each one that differs is named, and the target
# fails if any did.
BASE ?= HEAD
check-parent:
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT; \
	git worktree add --detach "$$tmp/base" "$(BASE)" >/dev/null 2>&1; \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/base.bin" ./cmd/friedabench); \
	$(GO) build -o "$$tmp/head.bin" ./cmd/friedabench; \
	for side in base head; do \
		mkdir "$$tmp/$$side.out"; cd "$$tmp/$$side.out"; bin="$$tmp/$$side.bin"; \
		$$bin -exp fig6a -trace trace.json > fig6a_trace.txt; \
		$$bin -exp stragglers -attrib > stragglers_attrib.txt; \
		for e in durability masterfail stragglers; do $$bin -exp $$e -metrics $$e.csv > $$e.txt; done; \
		$$bin -exp fig6a -gantt > fig6a_gantt.txt; \
		cd - >/dev/null; \
	done; \
	differ=""; \
	for f in $$(ls "$$tmp/base.out"); do \
		echo "$$f"; cmp "$$tmp/base.out/$$f" "$$tmp/head.out/$$f" || differ="$$differ $$f"; \
	done; \
	if [ -n "$$differ" ]; then echo "check-parent: differs from $(BASE):$$differ"; exit 1; fi

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Every layer's testing.B benchmarks, as profiling entry points. The
# recorded per-layer numbers are the benchmark's rows (bench/README.md,
# "Per-layer metrics"), printed by `--trace 1` runs: e.g. netsim.flat_flow_us,
# sim.schedule_fire_ns, catalog.journal_append_ns, obs.attrib_ns_per_edge.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's benchmark (BENCHMARK.json, bench/README.md): the six workloads end
# to end, untraced; of each run only its last line, the JSON result, is shown.
bench-e2e:
	@for w in rt_small_tcp rt_bulk_tcp rt_return_mem sim_paper sim_scale sim_durability; do \
		out=$$($(GO) run -C bench frieda/bench --workload $$w --seed 1 --seconds 10 --trace 0) || exit 1; \
		echo "$$w $$(echo "$$out" | tail -n 1)"; \
	done

# The benchmark's own tests. bench/ is a nested module, so `go test ./...`
# from the root does not reach it.
bench-smoke:
	cd bench && $(GO) vet . && $(GO) test -race .

# Regenerate BENCH_scale.json: the datacenter sweep (fat-tree testbed,
# cold-link aggregation) from 256 to 65,536 workers.
# -parallel 1 keeps the wall-clock columns clean of scheduling noise.
# Compare per-event cost against the committed file before merging netsim,
# simrun or engine changes, and update the file with the new numbers.
bench-scale:
	$(GO) run ./cmd/friedabench -exp scale -parallel 1 -bench-out BENCH_scale.json
	$(GO) test -bench='BenchmarkNetsimTree' -benchmem -benchtime 1x -run '^$$' ./internal/netsim/

# CPU-profile the largest scale cell; inspect with `go tool pprof cpu.prof`.
profile-scale:
	$(GO) run ./cmd/friedabench -exp scale -parallel 1 -workers 65536 -cpuprofile cpu.prof -memprofile mem.prof

# Regenerate the paper's evaluation (Table I, Fig 6a/6b, Fig 7a/7b).
reproduce:
	$(GO) run ./cmd/friedabench -exp all

# The design-choice sweeps beyond the paper.
ablations:
	$(GO) run ./cmd/friedabench -exp ablations

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/imagepipeline
	$(GO) run ./examples/blastfarm
	$(GO) run ./examples/elastic
	$(GO) run ./examples/faulttolerance
	$(GO) run ./examples/federated

clean:
	$(GO) clean ./...
