# Standard checks for the godcg repository.
#
#   make check   - what CI runs: lint + full test suite under the race
#                  detector (includes the server/simrun concurrency tests)
#                  + the benchmark module's vet and tests
#   make bench-check - go vet and go test in the benchmark module (bench/,
#                  its own Go module, which a root go test never builds)
#   make lint    - go vet + gofmt -l (fails on unformatted files) +
#                  schemedoc -check (docs scheme tables match the registry)
#   make test    - fast suite, no race detector
#   make bench   - the per-figure and substrate micro-benchmarks
#   make bench-json - the same benchmarks as machine-readable JSON
#                  (BENCH_baseline.json holds a committed -benchtime=1x run)
#   make serve   - run the simulation service locally
#   make sweep-smoke - kill a sweep job mid-flight, resume it, and assert
#                  byte-identical results with no re-executed work
#   make cluster-smoke - coordinator + two worker processes, SIGKILL one
#                  mid-sweep, assert completion and byte-identical results

GO ?= go

.PHONY: check lint vet fmt-check schemedoc-check test race bench-check bench bench-json build serve sweep-smoke cluster-smoke

check: lint race bench-check

lint: vet fmt-check schemedoc-check

schemedoc-check:
	$(GO) run ./cmd/schemedoc -check

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Pinned to -cpu=1 so benchmark names stay suffix-free (comparable
# against BENCH_baseline.json) and no number depends on the host's core
# count.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ -cpu=1 ./...

bench-json:
	$(GO) test -bench=. -benchmem -run=^$$ -cpu=1 ./... | $(GO) run ./cmd/benchjson

serve:
	$(GO) run ./cmd/dcgserve

sweep-smoke:
	scripts/sweep_smoke.sh

cluster-smoke:
	scripts/cluster_smoke.sh
