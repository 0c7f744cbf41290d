# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml); keeping them here means the local invocation
# and the gate can never drift apart.

# The model-backed experiments: deterministic, sub-second each, no
# simulator population to churn — the stable subset the perf trajectory
# records on every run. The sim-backed experiments (validate, sweep,
# adapt, ...) stay interactive-only; they are minutes, not seconds. topk
# is the exception: its A/B is pinned to a small fixed population, so it
# stays sub-second too.
BENCH_EXPERIMENTS := table1 fig1 fig2 fig3 fig4 ttlsens alpha kary topk store viewdelta chaos

.PHONY: all build test race fuzz-smoke bench bench-check live-deps loc fmt vet

all: build test

build:
	go build ./...

test:
	go test ./...

# The live subsystem under the race detector — the CI race matrix — and
# ten rounds of the one test that hammers a shared connection, where a
# pooled frame buffer aliasing a returned value would race.
race:
	go test -race ./client/ ./internal/adapt/ ./internal/chaos/ \
		./internal/gossip/... ./internal/node/ ./internal/obs/ \
		./internal/replica/ ./internal/store/ ./internal/topk/ \
		./internal/transport/ ./cmd/pdht-node/
	go test -race -count=10 -run TestTCPSharedConnectionNeverAliases ./internal/transport/

# Each wire-decoder fuzz target for 20 s from the committed seed corpus
# (internal/transport/testdata/fuzz). `go test -fuzz` takes one target per
# run. New inputs land in the Go build cache; only a crasher is written
# into testdata.
FUZZ_TARGETS := FuzzReadFrame FuzzFrameRoundTrip

fuzz-smoke:
	@for f in $(FUZZ_TARGETS); do \
		echo "fuzz: $$f"; \
		go test ./internal/transport/ -run '^$$' -fuzz "^$$f$$" -fuzztime 20s || exit 1; \
	done

# The perf trajectory artifact: one JSON object per experiment table, in
# the {title, header, rows} schema pdht-bench -format json emits, written
# to BENCH_node.json at the repo root so successive PRs can be charted
# against each other.
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

# The live node imports no simulator package directly: trie/Kademlia
# overlays and the simulated network stay in internal/sim's half of the tree
# (ROADMAP "one live overlay"). Fails naming the offending import.
live-deps:
	@bad=$$(go list -f '{{join .Imports "\n"}}' ./internal/node \
		| grep -E '^pdht/internal/(netsim|dht|overlay|sim)$$'); \
	if [ -n "$$bad" ]; then \
		echo "internal/node imports simulator packages:"; echo "$$bad"; exit 1; \
	fi

# Net line count is a tracked number (ROADMAP aim 2): non-test and test Go
# lines outside bench/.
loc:
	@echo "non-test $$(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
	@echo "test     $$(find . -name '*.go' -not -path './bench/*' -name '*_test.go' | xargs cat | wc -l)"

fmt:
	gofmt -l .

vet:
	go vet ./...
