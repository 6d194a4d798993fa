#!/bin/sh
# check.sh — the full local gate: vet, build, tests, race-detector runs on
# the concurrent packages, and a 1-iteration benchmark smoke pass. Full
# micro-benchmark runs are `make bench`; the end-to-end benchmark is
# `bash e2ebench/run.sh`.
set -eux

cd "$(dirname "$0")/.."

# named PATTERN ARGS... runs go test -run=PATTERN ARGS... after checking
# that every |-separated name in PATTERN selects at least one test in the
# packages. go test itself passes on "no tests to run", so a renamed test
# would otherwise drop out of its stanza without a word.
named() {
	pattern=$1
	shift
	listed=$(go test -list="$pattern" "$@" | grep -E '^(Test|Fuzz|Example)' || true)
	for name in $(printf '%s' "$pattern" | tr '|' ' '); do
		if ! printf '%s\n' "$listed" | grep -Eq "$name"; then
			echo "check.sh: -run name $name selects no test in: $*" >&2
			exit 1
		fi
	done
	go test -run="$pattern" "$@"
}

go vet ./...
go build ./...
go test ./...
go test -race ./internal/core/ ./internal/exec/ ./internal/cluster/ ./internal/storage/
# Parallel data-plane kernels under the race detector, by name: the
# partition-parallel join/agg/exchange/sort paths and the skewed-partition
# stress that diffs them against the serial reference walk.
named 'TestSkewStress|TestParallelScheduler|TestViewScanConcurrent|TestExecutionDeterminism|TestMergeJoinMatchesHashJoin' \
	-race -count=1 ./internal/exec/
# Hot-view cache under the race detector, by name: concurrent consumers
# sharing one decode while views churn (delete/rewrite), plus the parallel
# encode/decode multi-partition round trip.
named 'TestConsumeCacheConcurrent|TestConcurrentStoreOps|TestMultiPartitionRoundTrip' \
	-race -count=1 ./internal/storage/
# Compiled-expression equivalence, by name: the pinned interpreter edge-
# case semantics table, the 4000-trial compiled-vs-interpreted golden
# sweep, and the shared-program race tests (one compiled program across
# goroutines at the expr level and across partition workers at the exec
# level).
named 'TestInterpreterScalarSemantics|TestCompiledGoldenEquivalence|TestExecCompiledMatchesInterpreter' \
	-count=1 ./internal/expr/ ./internal/exec/
named 'TestCompiledSharedAcrossGoroutines|TestCompiledSharedAcrossPartitionWorkers' \
	-race -count=1 ./internal/expr/ ./internal/exec/
# Columnar codec fuzz smoke: a short seeded-corpus fuzz run of the
# encode/decode round trip (all data kinds, NULLs, extreme values,
# corrupt-payload rejection). Longer runs: go test -fuzz with a budget.
go test -run='^$' -fuzz='^FuzzColencRoundTrip$' -fuzztime=10s ./internal/data/colenc/
# Compiled-expression fuzz smoke: random trees x random (wrong-kind, NULL,
# NaN) rows, compiled output must be bit-identical to the interpreter.
go test -run='^$' -fuzz='^FuzzCompiledEval$' -fuzztime=10s ./internal/expr/
# Analyzer scale-out under the race detector, by name: the golden
# serial-vs-parallel equivalence sweep (every strategy and admin knob) and
# the concurrent Append-while-Analyze soak over the zero-copy snapshot.
named 'TestAnalyzerGolden|TestAnalyzerConcurrent|TestOverlapStatsGolden' \
	-race -count=1 ./internal/analyzer/
# Job lifecycle under the race detector, by name: cancellation checkpoints
# (pre-cancelled, mid-run, retry-loop) and deadline determinism in the
# executor, plus the service-level paths — deadline shedding, mid-job
# retraction, circuit breakers, drain, and the bounded in-flight gate.
named 'TestRunCtx|TestShedUnmeetableDeadline|TestDeadlineExceededFailsJob|TestCancelMidJobRetractsEverything|TestMetadataBreakerLifecycle|TestStoreBreakerDegradesToBaseline|TestDrain|TestMaxInFlight|TestSubmitBatchAggregatesFailures|TestBatchConcurrencyResolution' \
	-race -count=1 ./internal/core/ ./internal/exec/
# Shared plans under the race detector, by name: concurrent Run and
# RunBatch jobs all reading one caller-owned plan (nothing clones it up
# front), and the serial-vs-batch determinism check.
named 'TestRunSharedPlanConcurrent|TestSubmitBatchMatchesSerial' -race -count=1 ./internal/core/
# Circuit-breaker state machine unit tests under the race detector.
go test -race -count=1 ./internal/breaker/
# Chaos soak under the race detector, bounded rounds: concurrent jobs
# through a seeded fault schedule (vertex crashes, storage faults, view
# corruption, metadata blackouts) with per-job output validation, plus a
# per-round lifecycle wave (randomized cancellations, tight deadlines)
# whose goroutine-leak gate doubles as the leak check for the lifecycle
# machinery. The CHAOS_ROUNDS knob scales it; `make chaos` runs the long
# version.
CHAOS_ROUNDS="${CHAOS_ROUNDS:-2}"
export CHAOS_ROUNDS
named 'TestChaosSoak' -race -count=1 ./internal/core/
# Observability layer under the race detector, by name: trace export must
# be byte-identical across serial and DAG execution for a fixed fault
# seed, Snapshot must stay consistent while a concurrent batch mutates
# every registry, and the grouped recovery counters must never tear. The
# obs package's own tests (sharded registry, trace store eviction) run
# alongside.
named 'TestTraceDeterminismSerialVsDAG|TestSnapshotConcurrentWithBatch|TestRecoveryStatsSnapshotConsistent|TestTracingDisabled|TestLifecycleOutcomeMetrics' \
	-race -count=1 ./internal/core/
go test -race -count=1 ./internal/obs/
# Observability overhead guard on the warmed submit path, obs=off (every
# hook seam nil) vs obs=metrics (the always-on counters). Two gates:
#   - allocs/op delta at most OBS_ALLOC_BUDGET (default 5). Allocation
#     counts are deterministic, so this is the sharp edge — it fails the
#     moment someone puts a per-submit allocation in a hot hook.
#   - ns/op: median over OBS_GUARD_SAMPLES runs of each mode in one
#     process, metrics at most OBS_OVERHEAD_PCT percent over off
#     (default 20). Deliberately loose: single-sample wall clock on a
#     shared runner swings ±15%, far above the true cost (metrics +3.3%
#     and +3 allocs over off, measured 2026-08-09 at cpus: 1), so the
#     median gate only catches gross regressions like tracing leaking
#     into the metrics-only path.
# Full tracing is an opt-in and is not gated; BenchmarkSubmit/obs=trace
# under `make bench` measures its cost.
OBS_TMP="$(mktemp)"
go test -run='^$' -bench='^BenchmarkSubmit$/^obs=(off|metrics)$' \
	-benchmem -benchtime="${OBS_GUARD_BENCHTIME:-0.2s}" \
	-count="${OBS_GUARD_SAMPLES:-8}" ./internal/core/ | tee "$OBS_TMP"
awk -v pct="${OBS_OVERHEAD_PCT:-20}" -v allocbudget="${OBS_ALLOC_BUDGET:-5}" '
	function median(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
		return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
	}
	/^BenchmarkSubmit\/obs=off/     { offs[++no] = $3 + 0; offAllocs = $7 + 0 }
	/^BenchmarkSubmit\/obs=metrics/ { mets[++nm] = $3 + 0; metAllocs = $7 + 0 }
	END {
		if (no == 0 || nm == 0) { print "obs guard: missing benchmark output"; exit 1 }
		offNs = median(offs, no); metNs = median(mets, nm)
		dAllocs = metAllocs - offAllocs
		over = (metNs - offNs) / offNs * 100
		printf "obs guard: off=%.0fns/%dallocs metrics=%.0fns/%dallocs (medians of %d/%d) " \
			"overhead=%.2f%% (budget %s%%) +%dallocs (budget %s)\n", \
			offNs, offAllocs, metNs, metAllocs, no, nm, over, pct, dAllocs, allocbudget
		if (dAllocs > allocbudget + 0) { print "obs guard: metrics hooks allocate over budget"; exit 1 }
		if (over > pct + 0) { print "obs guard: metrics overhead over budget"; exit 1 }
	}
' "$OBS_TMP"
rm -f "$OBS_TMP"
# Exec kernel benchmark smoke: one iteration of every data-plane benchmark
# exercises the kernels at 4/16/64 partitions (full runs: make bench).
go test -run='^$' -bench='^BenchmarkExec' -benchtime=1x ./internal/exec/
# Lifecycle overhead probe smoke (full runs: make bench).
go test -run='^$' -bench='^BenchmarkSubmitCancelled$' -benchtime=1x ./internal/core/
# Expression-compiler benchmark smoke: compile cost plus the per-row
# interp-vs-compiled pairs (full numbers live in EXPERIMENTS.md).
go test -run='^$' -bench='^BenchmarkExpr' -benchtime=1x ./internal/expr/
# Storage benchmark smoke: codec, store write/consume, and the end-to-end
# reuse-hit job (full runs: make bench).
go test -run='^$' -bench='^BenchmarkColenc|^BenchmarkStorage' -benchtime=1x \
	./internal/data/colenc/ ./internal/storage/
go test -run='^$' -bench='^BenchmarkStorageReuseHitJob$' -benchtime=1x ./internal/exec/
# Frontend hot-path benchmarks (per-job submission cost): one iteration
# verifies the benchmark harnesses and their internal assertions.
go test -run='^$' -bench='^BenchmarkSignature$|^BenchmarkOptimizeFrontend$|^BenchmarkMetadataLookup' \
	-benchtime=1x ./internal/signature/ ./internal/optimizer/ ./internal/metadata/
# Analyzer benchmark smoke: one iteration at the -short sizes verifies the
# harnesses (full sizes: make bench).
go test -run='^$' -bench='^BenchmarkAnalyzer' -benchtime=1x -short ./internal/analyzer/
# Smoke-run every benchmark once; -short skips the heavyweight runs
# (full TPC-DS) so this finishes quickly.
go test -run='^$' -bench=. -benchtime=1x -short ./...
