# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keeping them here means the local invocation
# and the gate can never drift apart.

# The paper's tables BENCH_node.json pins: deterministic, sub-second each.
# The model-backed experiments have no simulator population to churn. Of
# the sim-backed ones only topk, whose A/B runs a small fixed population,
# is pinned; the others (validate, sweep, adapt, ...) also take about a
# second each, but nothing pins their tables yet.
BENCH_EXPERIMENTS := table1 fig1 fig2 fig3 fig4 ttlsens alpha kary topk

.PHONY: all build test race fuzz-smoke examples bench bench-check live-deps orphans loc fmt vet

all: build test

build:
	go build ./...

test:
	go test ./...

# The live subsystem under the race detector — the CI race matrix — then
# ten rounds of the one test that hammers a shared connection, where a
# pooled frame buffer aliasing a returned value would race, and five of
# the Close test, where a handoff spawned during Close would race its Wait.
race:
	go test -race ./client/ ./internal/adapt/ ./internal/chaos/ \
		./internal/gossip/... ./internal/node/ ./internal/obs/ \
		./internal/replica/ ./internal/store/ ./internal/topk/ \
		./internal/transport/ ./cmd/pdht-node/
	go test -race -count=10 -run TestTCPSharedConnectionNeverAliases ./internal/transport/
	go test -race -count=5 -run TestCloseReturnsGoroutinesToBaseline ./internal/node/

# Each fuzz target, as package:target, for 20 s from its committed seed
# corpus (<package>/testdata/fuzz). `go test -fuzz` takes one target per
# run. New inputs land in the Go build cache; only a crasher is written
# into testdata.
FUZZ_TARGETS := ./internal/transport:FuzzReadFrame \
	./internal/transport:FuzzFrameRoundTrip \
	./internal/chaos:FuzzParseSchedule \
	./internal/core:FuzzCacheOps \
	./client:FuzzParseTopK \
	./client:FuzzParseQuery \
	./internal/store:FuzzWALReplay \
	./internal/obs:FuzzFleetReport

fuzz-smoke:
	@for pt in $(FUZZ_TARGETS); do \
		echo "fuzz: $$pt"; \
		go test "$${pt%%:*}" -run '^$$' -fuzz "^$${pt##*:}$$" -fuzztime 20s || exit 1; \
	done

# The example programs are executed, not just compiled: each boots what it
# shows (a loopback cluster, a data directory, a debug plane) and must exit
# 0 within a minute.
examples:
	@for d in examples/*/; do \
		echo "example: $$d"; \
		timeout 60 go run ./$$d >/dev/null || exit 1; \
	done

# The paper's figures as a golden file: one JSON object per experiment
# table, in the {title, header, rows} schema pdht-bench -format json emits,
# written to BENCH_node.json at the repo root. TestBenchGoldenIsCurrent
# (cmd/pdht-bench) regenerates the same tables in-process and requires byte
# equality, and CI fails on a diff after this target. Wall-clock numbers of
# the live node are bench/'s business (bench/run.sh), not this file's.
bench:
	@: > BENCH_node.json
	@for e in $(BENCH_EXPERIMENTS); do \
		echo "bench: $$e"; \
		go run ./cmd/pdht-bench -experiment $$e -format json \
			| grep -v '^$$' >> BENCH_node.json || exit 1; \
	done
	@echo "wrote BENCH_node.json ($$(wc -l < BENCH_node.json) tables)"

# The load benchmark is a module of its own (bench/go.mod), so build and
# test at the root never compile it — yet it is the only consumer of
# node.DialRemote/RemoteClient outside this module's packages. This target
# is what notices when a change here breaks it.
bench-check:
	cd bench && go vet ./... && go test ./...

# The one-way rule between the two trees (DESIGN.md "Layer map"): nothing a
# live root links — transitively — is a simulator package. The root package
# and the examples are live roots too: the front door an embedder imports
# links no simulator. On a hit, names the packages reached and the import
# edges that cross from live to simulator code.
LIVE_ROOTS := . ./examples/... ./internal/node ./client ./cmd/pdht-node ./cmd/pdht-top ./cmd/pdht-chaos
SIM_TREE := pdht/internal/(netsim|dht|overlay|sim|churn|workload|experiments)([/ ]|$$)

live-deps:
	@bad=$$(go list -deps $(LIVE_ROOTS) | grep -E '^$(SIM_TREE)'); \
	if [ -n "$$bad" ]; then \
		echo "live code reaches simulator packages:"; echo "$$bad"; \
		echo "through:"; \
		go list -deps -f '{{$$p := .ImportPath}}{{range .Imports}}{{$$p}} -> {{.}}{{"\n"}}{{end}}' $(LIVE_ROOTS) \
			| grep -E ' -> $(SIM_TREE)' | grep -vE '^$(SIM_TREE)'; \
		exit 1; \
	fi

# What only its own test reaches: exported functions and methods under
# internal/ and client/ that no non-test Go file names, root-package
# functions and variables that neither a non-test file nor a root Example
# names, and exported fields of *Config/*Options structs under internal/
# and client/ that no non-test file but their own sets. The allow-lists,
# with a reason per entry, are in orphans_test.go.
orphans:
	go test -count=1 -run TestNoOrphaned .

# Net line count is a tracked number (ROADMAP aim 2): non-test and test Go
# lines outside bench/.
loc:
	@echo "non-test $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test     $$(find . -name '*.go' -not -path './bench/*' -name '*_test.go' | xargs cat | wc -l)"

fmt:
	gofmt -l .

vet:
	go vet ./...
