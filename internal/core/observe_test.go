package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/fault"
)

// traceRun drives one fixed-seed faulty workload through a fresh service
// on the requested execution path and returns every job's exported trace
// bytes. Everything that feeds a trace is simulated (logical ticks,
// seeded faults, simulated CPU), so two runs differing only in
// Executor.Serial must export identical bytes.
func traceRun(t *testing.T, serial bool) map[string][]byte {
	t.Helper()
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	s.Exec.Serial = serial
	s.Sched = newSchedulerWithVC("vc1", 100)
	s.SetObserver(s.Observer()) // rewire hooks now that Sched is attached
	s.InstallFaults(fault.NewInjector(fault.Config{
		Seed: 7, VertexCrash: 0.15, VertexSlow: 0.3, SlowDelay: 5,
	}))

	var ids []string
	submit := func(spec JobSpec) {
		t.Helper()
		if _, err := s.Run(context.Background(), spec); err != nil {
			t.Fatalf("job %s: %v", spec.Meta.JobID, err)
		}
		ids = append(ids, spec.Meta.JobID)
	}
	submit(specA("a0", 0))
	submit(specB("b0", 0))
	if an := s.RunAnalyzer(analyzer.Config{MinFrequency: 2, TopK: 1}); len(an.Selected) == 0 {
		t.Fatal("analyzer selected nothing")
	}
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	submit(specA("a1", 1)) // builds the annotated view
	submit(specB("b1", 1)) // reuses it

	out := map[string][]byte{}
	for _, id := range ids {
		tr, ok := s.Trace(id)
		if !ok {
			t.Fatalf("no trace retained for %s", id)
		}
		out[id] = tr.JSON()
	}
	return out
}

// TestTraceDeterminismSerialVsDAG pins the tentpole invariant: for a
// fixed seed, the exported trace of every job is byte-identical whether
// the plan ran on the serial reference walk or the parallel DAG
// scheduler.
func TestTraceDeterminismSerialVsDAG(t *testing.T) {
	serial := traceRun(t, true)
	dag := traceRun(t, false)
	if len(serial) != len(dag) {
		t.Fatalf("job count differs: serial=%d dag=%d", len(serial), len(dag))
	}
	for id, sj := range serial {
		if !bytes.Equal(sj, dag[id]) {
			t.Errorf("trace for %s differs across execution paths\nserial: %s\ndag:    %s", id, sj, dag[id])
		}
	}
	// The reusing job's trace must carry the full span taxonomy.
	b1 := serial["b1"]
	for _, want := range []string{
		`"outcome":"ok"`, `"name":"admission"`, `"name":"optimize"`,
		`"name":"match"`, `"name":"inject"`, `"name":"execute"`,
		`"name":"schedule"`, `"name":"storage.decode"`, `"cache":`,
	} {
		if !bytes.Contains(b1, []byte(want)) {
			t.Errorf("trace for b1 missing %s:\n%s", want, b1)
		}
	}
	if !bytes.Contains(serial["a1"], []byte(`"name":"publish"`)) {
		t.Errorf("builder job a1 has no publish span:\n%s", serial["a1"])
	}
}

// TestSnapshotConcurrentWithBatch reads Snapshot continuously while a
// batch executes (the -race stanza in scripts/check.sh runs this under
// the race detector) and then checks the settled ledger adds up.
func TestSnapshotConcurrentWithBatch(t *testing.T) {
	s := newService(t)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)

	const batch = 24
	specs := make([]JobSpec, batch)
	for i := range specs {
		if i%2 == 0 {
			specs[i] = specA(fmt.Sprintf("a1-%d", i), 1)
		} else {
			specs[i] = specB(fmt.Sprintf("b1-%d", i), 1)
		}
	}

	var bad atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			st := s.Snapshot()
			if st.SchemaVersion != StatsSchemaVersion {
				bad.Add(1)
			}
			if st.Recovery.QuarantinedViews > st.Recovery.DegradedReplans {
				bad.Add(1) // a quarantine always pairs with a replan
			}
		}
	}()
	if _, err := s.RunBatch(context.Background(), specs, BatchOptions{Concurrency: 8}); err != nil {
		t.Fatal(err)
	}
	<-done
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inconsistent snapshots observed mid-batch", n)
	}

	st := s.Snapshot()
	m := st.Metrics.Counters
	const total = 2 + batch // seedHistory + the batch
	if m["jobs.submitted"] != total || m["jobs.completed"] != total {
		t.Fatalf("job ledger: submitted=%d completed=%d want %d/%d",
			m["jobs.submitted"], m["jobs.completed"], total, total)
	}
	if m["jobs.failed"] != 0 {
		t.Fatalf("unexpected failures: %d", m["jobs.failed"])
	}
	if m["exec.vertices"] == 0 || m["meta.lookups"] == 0 || m["storage.views_written"] == 0 {
		t.Fatalf("core counters not flowing: %v", m)
	}
	if h := st.Metrics.Histograms["job.latency_ticks"]; h.Count != total {
		t.Fatalf("latency histogram count=%d want %d", h.Count, total)
	}
	if m["analyzer.runs"] != 1 {
		t.Fatalf("analyzer.runs=%d want 1", m["analyzer.runs"])
	}
	if len(st.Breakers) != 2 || st.Breakers[0].Dep != "metadata" || st.Breakers[1].Dep != "viewstore" {
		t.Fatalf("breaker stats malformed: %+v", st.Breakers)
	}
}

// TestRecoveryStatsSnapshotConsistent pins the grouped-counter fix:
// a snapshot must never observe a quarantine without its paired replan,
// which plain atomic loads could tear between the two increments.
func TestRecoveryStatsSnapshotConsistent(t *testing.T) {
	s := newService(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.recovery.bump(func() {
					s.recovery.quarantined.Add(1)
					s.recovery.replans.Add(1)
				})
			}
		}()
	}
	for i := 0; i < 500; i++ {
		rs := s.Snapshot().Recovery
		if rs.QuarantinedViews != rs.DegradedReplans {
			t.Fatalf("torn snapshot: quarantined=%d replans=%d",
				rs.QuarantinedViews, rs.DegradedReplans)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTracingDisabled: TraceCapacity < 0 turns tracing off while metrics
// keep flowing; SetObserver(nil) strips everything.
func TestTracingDisabled(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true, TraceCapacity: -1})
	if _, err := s.Run(context.Background(), specA("a0", 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Trace("a0"); ok {
		t.Fatal("trace retained with tracing disabled")
	}
	if n := s.Snapshot().Metrics.Counters["jobs.completed"]; n != 1 {
		t.Fatalf("metrics should flow without tracing, jobs.completed=%d", n)
	}

	s.SetObserver(nil)
	if _, err := s.Run(context.Background(), specB("b0", 0)); err != nil {
		t.Fatal(err)
	}
	if len(s.Snapshot().Metrics.Counters) != 0 {
		t.Fatal("metrics present after SetObserver(nil)")
	}
}

// TestTraceCapacityEviction: the ring keeps only the newest traces.
func TestTraceCapacityEviction(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true, TraceCapacity: 1})
	for _, id := range []string{"a0", "a1"} {
		if _, err := s.Run(context.Background(), specA(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Trace("a0"); ok {
		t.Fatal("oldest trace should have been evicted at capacity 1")
	}
	if _, ok := s.Trace("a1"); !ok {
		t.Fatal("newest trace missing")
	}
}

// TestLifecycleOutcomeMetrics: shed and deadline outcomes reach both the
// job counters and the trace root outcome.
func TestLifecycleOutcomeMetrics(t *testing.T) {
	cat := catalog.New()
	deliver(t, cat, 0)
	s := NewService(cat, Config{Enabled: true})
	if _, err := s.Run(context.Background(), specA("ok", 0)); err != nil {
		t.Fatal(err)
	}
	// Deadline 1 tick: the job's simulated latency cannot fit.
	spec := specB("late", 0)
	spec.Deadline = 1
	if _, err := s.Run(context.Background(), spec); err == nil {
		t.Fatal("expected deadline failure")
	}
	m := s.Snapshot().Metrics.Counters
	if m["jobs.failed"] != 1 || m["jobs.deadline_exceeded"] != 1 {
		t.Fatalf("deadline not counted: %v", m)
	}
	tr, ok := s.Trace("late")
	if !ok {
		t.Fatal("failed job should still be traced")
	}
	if !bytes.Contains(tr.JSON(), []byte(`"outcome":"deadline"`)) {
		t.Fatalf("trace outcome wrong: %s", tr.JSON())
	}
}
