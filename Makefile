.PHONY: check test race bench chaos

check:
	./scripts/check.sh

test:
	go build ./... && go test ./...

race:
	go test -race ./internal/core/ ./internal/exec/ ./internal/cluster/

# Long chaos soak: hundreds of concurrent jobs per round under a seeded
# fault schedule, race detector on. CHAOS_ROUNDS scales the length.
chaos:
	CHAOS_ROUNDS=$${CHAOS_ROUNDS:-25} go test -race -run='TestChaosSoak' -count=1 -v ./internal/core/

# Micro-benchmarks: every Benchmark* function, with allocations. The end-to-end
# benchmark is bash e2ebench/run.sh (see BENCHMARK.json).
bench:
	go test -run='^$$' -bench=. -benchmem ./...
