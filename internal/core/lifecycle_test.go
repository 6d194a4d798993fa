package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/catalog"
	"cloudviews/internal/fault"
	"cloudviews/internal/plan"
)

// newBreakerService builds a validating service with explicit breaker
// parameters (threshold consecutive failures, cooldown logical seconds).
func newBreakerService(t testing.TB, threshold int, cooldown int64) *Service {
	t.Helper()
	cat := catalog.New()
	deliver(t, cat, 0)
	return NewService(cat, Config{
		Enabled: true, ValidateResults: true,
		BreakerThreshold: threshold, BreakerCooldown: cooldown,
	})
}

// TestShedUnmeetableDeadline: a job whose queue-time estimate provably
// misses its deadline is rejected before execution with a typed shed
// error, and the Shed counter moves; a meetable deadline still runs.
func TestShedUnmeetableDeadline(t *testing.T) {
	s := newService(t)
	s.Sched = newSchedulerWithVC("vc1", 4)
	// Saturate the VC far past any reasonable deadline.
	if _, err := s.Sched.Admit("vc1", 4, s.Clock.Now(), 100000); err != nil {
		t.Fatal(err)
	}
	now := s.Clock.Now()

	spec := specA("shed1", 0)
	spec.Deadline = now + 10
	res, err := s.Run(context.Background(), spec)
	if res != nil || err == nil {
		t.Fatalf("unmeetable deadline must shed, got res=%v err=%v", res, err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonShed {
		t.Fatalf("want *JobError{ReasonShed}, got %v", err)
	}
	if je.JobID != "shed1" {
		t.Errorf("JobError.JobID = %q, want shed1", je.JobID)
	}
	if got := s.Snapshot().Recovery.Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
	// Nothing executed: no locks, no views, no store writes.
	if _, _, locks, _, _ := s.Meta.Stats(); locks != 0 {
		t.Errorf("shed job left %d build locks", locks)
	}
	if s.Store.Len() != 0 {
		t.Errorf("shed job wrote %d views", s.Store.Len())
	}

	// A deadline past the backlog is admitted and completes.
	ok := specA("shed2", 0)
	ok.Deadline = now + 1000000
	if _, err := s.Run(context.Background(), ok); err != nil {
		t.Fatalf("meetable deadline should run: %v", err)
	}
	if got := s.Snapshot().Recovery.Shed; got != 1 {
		t.Errorf("Shed moved to %d on a successful job", got)
	}
}

// TestDeadlineExceededFailsJob: a deadline tighter than the job's
// simulated latency fails execution with a ReasonDeadline JobError, and
// Config.DefaultDeadline applies it to jobs without an explicit one.
func TestDeadlineExceededFailsJob(t *testing.T) {
	s := newService(t)
	clean, err := s.Run(context.Background(), specA("clean", 0))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Result.Latency <= 1 {
		t.Fatalf("plan latency %v too small to test deadlines", clean.Result.Latency)
	}

	spec := specA("dl1", 0)
	spec.Deadline = s.Clock.Now() + 1
	_, err = s.Run(context.Background(), spec)
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonDeadline {
		t.Fatalf("want *JobError{ReasonDeadline}, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("cause should unwrap to context.DeadlineExceeded: %v", err)
	}
	if got := s.Snapshot().Recovery.DeadlineExceeded; got != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", got)
	}
	if _, _, locks, _, _ := s.Meta.Stats(); locks != 0 {
		t.Errorf("deadline-failed job left %d build locks", locks)
	}

	// DefaultDeadline covers jobs that didn't set one.
	s.Config.DefaultDeadline = 1
	if _, err := s.Run(context.Background(), specA("dl2", 0)); err == nil {
		t.Fatal("DefaultDeadline=1 should fail the job")
	} else if !errors.As(err, &je) || je.Reason != ReasonDeadline {
		t.Fatalf("want ReasonDeadline under DefaultDeadline, got %v", err)
	}
	// An explicit per-job deadline overrides the default.
	wide := specA("dl3", 0)
	wide.Deadline = s.Clock.Now() + 1_000_000
	if _, err := s.Run(context.Background(), wide); err != nil {
		t.Fatalf("explicit deadline should override DefaultDeadline: %v", err)
	}
	s.Config.DefaultDeadline = 0
}

// sealThenCancelHook cancels the job's context the moment its Materialize
// vertex completes — after the view sealed and was early-published, before
// the rest of the plan runs. The cancelled job must then retract it.
type sealThenCancelHook struct {
	cancel context.CancelFunc
	mu     sync.Mutex
	done   bool
}

func (h *sealThenCancelHook) VertexDone(_, _ string, k plan.OpKind, _ int) error {
	if k == plan.OpMaterialize {
		h.mu.Lock()
		if !h.done {
			h.done = true
			h.cancel()
		}
		h.mu.Unlock()
	}
	return nil
}

func (h *sealThenCancelHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestCancelMidJobRetractsEverything: a job cancelled after it
// early-published a view stops at the next checkpoint, releases its build
// lock, retracts the published view (metadata first, then the file), and
// leaves the reuse machinery fully functional for the next submitter.
func TestCancelMidJobRetractsEverything(t *testing.T) {
	s := newService(t)
	s.Sched = newSchedulerWithVC("vc1", 64)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	metaBefore, storeBefore := len(s.Meta.Views()), s.Store.Len()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &sealThenCancelHook{cancel: cancel}
	s.Exec.Faults = hook
	res, err := s.Run(ctx, specA("cx1", 1))
	s.Exec.Faults = nil
	if res != nil || err == nil {
		t.Fatalf("cancelled job must fail, got res=%v err=%v", res, err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonCancelled {
		t.Fatalf("want *JobError{ReasonCancelled}, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cause should unwrap to context.Canceled: %v", err)
	}
	if !hook.done {
		t.Fatal("hook never saw a Materialize seal — the test exercised nothing")
	}
	if got := s.Snapshot().Recovery.Cancelled; got != 1 {
		t.Errorf("Cancelled = %d, want 1", got)
	}

	// Nothing left behind: no locks, no reservations, no published views.
	if _, _, locks, _, _ := s.Meta.Stats(); locks != 0 {
		t.Errorf("cancelled job left %d build locks", locks)
	}
	if live := s.Sched.LiveReservations("vc1", s.Clock.Now()); live != 0 {
		t.Errorf("cancelled job left %d live reservations", live)
	}
	for _, v := range s.Meta.Views() {
		if v.ProducerJobID == "cx1" {
			t.Errorf("cancelled job still published view %s", v.Path)
		}
	}
	for _, v := range s.Store.Views() {
		if v.ProducerJobID == "cx1" {
			t.Errorf("cancelled job left file %s in the store", v.Path)
		}
	}
	if got := len(s.Meta.Views()); got != metaBefore {
		t.Errorf("metadata views %d, want %d (retraction incomplete)", got, metaBefore)
	}
	if got := s.Store.Len(); got != storeBefore {
		t.Errorf("store views %d, want %d (retraction incomplete)", got, storeBefore)
	}

	// The released lock lets the next submitter build the same view.
	r2, err := s.Run(context.Background(), specA("cx2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Decision.ViewsBuilt) != 1 {
		t.Errorf("follow-up built %d views, want 1 (lock wedged?)", len(r2.Decision.ViewsBuilt))
	}
}

// TestMetadataBreakerLifecycle: consecutive metadata-lookup failures trip
// the metadata breaker; while it is open, jobs degrade to their baseline
// plan without touching the metadata service at all; after the cooldown a
// half-open probe against the healed service closes it and reuse resumes.
// No job fails at any point.
func TestMetadataBreakerLifecycle(t *testing.T) {
	// Cooldown far beyond what job completions advance the clock by, so
	// the open phase is observable; the heal phase advances the clock
	// explicitly to let the probe through.
	const cooldown = 1 << 20
	s := newBreakerService(t, 3, cooldown)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	if _, err := s.Run(context.Background(), specA("a1", 1)); err != nil {
		t.Fatal(err)
	}

	s.Meta.Faults = blackout{}
	for i := 0; i < 3; i++ {
		r, err := s.Run(context.Background(), specB(fmt.Sprintf("b%d", i), 1))
		if err != nil {
			t.Fatalf("blackout job %d must degrade, not fail: %v", i, err)
		}
		if !r.Decision.MetaUnavailable {
			t.Errorf("blackout job %d not flagged MetaUnavailable", i)
		}
	}
	if got := s.Snapshot().Recovery.BreakerOpens; got != 1 {
		t.Fatalf("BreakerOpens = %d after %d consecutive failures, want 1", got, 3)
	}

	// Open breaker: the next job degrades without a metadata round trip.
	_, _, _, lookupsBefore, _ := s.Meta.Stats()
	r, err := s.Run(context.Background(), specB("b-open", 1))
	if err != nil {
		t.Fatalf("short-circuited job must not fail: %v", err)
	}
	if r.Decision.BreakerOpen != "metadata" || !r.Decision.MetaUnavailable {
		t.Errorf("open-breaker decision = %+v, want BreakerOpen=metadata", r.Decision)
	}
	if _, _, _, lookupsAfter, _ := s.Meta.Stats(); lookupsAfter != lookupsBefore {
		t.Errorf("open breaker still performed %d lookups", lookupsAfter-lookupsBefore)
	}
	if got := s.Snapshot().Recovery.BreakerShortCircuits; got < 1 {
		t.Errorf("BreakerShortCircuits = %d, want >= 1", got)
	}

	// Heal the dependency and push the logical clock past the cooldown:
	// the next job is the half-open probe, its successful lookup closes
	// the breaker, and the very same job resumes reuse.
	s.Meta.Faults = nil
	s.Clock.AdvanceTo(s.Clock.Now() + cooldown + 1)
	r2, err := s.Run(context.Background(), specB("heal", 1))
	if err != nil {
		t.Fatalf("healed probe job failed: %v", err)
	}
	if len(r2.Decision.ViewsUsed) == 0 {
		t.Errorf("reuse did not resume on the healed probe: %+v", r2.Decision)
	}
	if got := s.Snapshot().Recovery.BreakerOpens; got != 1 {
		t.Errorf("breaker re-opened against a healthy service: opens = %d", got)
	}
}

// TestStoreBreakerDegradesToBaseline: when every view read fails, the
// store breaker (threshold below the vertex-retry cap) opens mid-job; the
// short-circuit is not a view failure, so the job replans to its baseline
// without quarantining the perfectly good view, and succeeds. When reads
// heal, the half-open probe restores reuse.
func TestStoreBreakerDegradesToBaseline(t *testing.T) {
	s := newBreakerService(t, 2, 1)
	seedHistory(t, s)
	deliver(t, s.Catalog, 1)
	s.BeginInstance(1)
	ra, err := s.Run(context.Background(), specA("a1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Decision.ViewsBuilt) != 1 {
		t.Fatalf("setup: builder built %d views, want 1", len(ra.Decision.ViewsBuilt))
	}
	viewsBefore := len(s.Meta.Views())

	// Every storage read fails from here on.
	s.Store.Faults = fault.NewInjector(fault.Config{Seed: 42, StorageRead: 1.0})
	rb, err := s.Run(context.Background(), specB("b1", 1))
	s.Store.Faults = nil
	if err != nil {
		t.Fatalf("store blackout must degrade, not fail: %v", err)
	}
	if rb.Decision.BreakerOpen != "viewstore" {
		t.Errorf("decision BreakerOpen = %q, want viewstore", rb.Decision.BreakerOpen)
	}
	if len(rb.Decision.ViewsUsed) != 0 {
		t.Errorf("degraded job still reads %d views", len(rb.Decision.ViewsUsed))
	}
	rec := s.Snapshot().Recovery
	if rec.QuarantinedViews != 0 {
		t.Errorf("healthy view quarantined %d times for a dependency outage", rec.QuarantinedViews)
	}
	if rec.DegradedReplans < 1 {
		t.Errorf("DegradedReplans = %d, want >= 1", rec.DegradedReplans)
	}
	if rec.BreakerOpens < 1 {
		t.Errorf("BreakerOpens = %d, want >= 1", rec.BreakerOpens)
	}
	if got := len(s.Meta.Views()); got != viewsBefore {
		t.Errorf("view count %d after outage, want %d (view should survive)", got, viewsBefore)
	}

	// Reads healed: the probe closes the breaker and the view is reused.
	rc, err := s.Run(context.Background(), specB("b2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Decision.ViewsUsed) != 1 {
		t.Errorf("reuse did not resume after reads healed: %+v", rc.Decision)
	}
}

// TestDrainStopsAdmissionAndFlushes: Drain on an idle service returns at
// once, flushes the metadata journal, and subsequent submissions are shed
// with ErrDraining.
func TestDrainStopsAdmissionAndFlushes(t *testing.T) {
	s := newService(t)
	if _, err := s.Run(context.Background(), specA("d0", 0)); err != nil {
		t.Fatal(err)
	}
	var journal bytes.Buffer
	if err := s.Drain(context.Background(), &journal); err != nil {
		t.Fatalf("drain of an idle service failed: %v", err)
	}
	if journal.Len() == 0 {
		t.Error("drain flushed an empty metadata journal")
	}
	if !s.Snapshot().Scheduler.Draining {
		t.Error("service does not report draining")
	}
	_, err := s.Run(context.Background(), specA("d1", 0))
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonShed {
		t.Fatalf("post-drain submit: want *JobError{ReasonShed}, got %v", err)
	}
	if !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit should wrap ErrDraining: %v", err)
	}
	if got := s.Snapshot().Recovery.Shed; got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}
}

// blockHook parks the first vertex of a job until released, letting the
// test hold a submission in flight deterministically.
type blockHook struct {
	release chan struct{}
	once    sync.Once
}

func (h *blockHook) VertexDone(string, string, plan.OpKind, int) error {
	h.once.Do(func() { <-h.release })
	return nil
}

func (h *blockHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestDrainWaitsForInFlight: Drain with an expired context reports the
// jobs still in flight; once they run down, a fresh Drain succeeds and
// the in-flight job itself completed normally.
func TestDrainWaitsForInFlight(t *testing.T) {
	s := newService(t)
	hook := &blockHook{release: make(chan struct{})}
	s.Exec.Faults = hook

	done := make(chan error, 1)
	go func() {
		_, err := s.Run(context.Background(), specA("slow", 0))
		done <- err
	}()
	for i := 0; s.Snapshot().Scheduler.InFlight == 0; i++ {
		if i > 2000 {
			t.Fatal("submission never reached in-flight state")
		}
		time.Sleep(time.Millisecond)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Drain(expired, nil)
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("drain under load with expired ctx: want in-flight error, got %v", err)
	}

	close(hook.release)
	if err := <-done; err != nil {
		t.Fatalf("in-flight job should complete despite drain: %v", err)
	}
	if err := s.Drain(context.Background(), nil); err != nil {
		t.Fatalf("drain after run-down failed: %v", err)
	}
}

// TestBatchConcurrencyResolution pins the documented contract: ≤ 1 means
// one worker per CPU (the doc said so; the code used to say < 1).
func TestBatchConcurrencyResolution(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []int{1, 0, -5} {
		if got := batchConcurrency(c); got != procs {
			t.Errorf("batchConcurrency(%d) = %d, want GOMAXPROCS %d", c, got, procs)
		}
	}
	for _, c := range []int{2, 7} {
		if got := batchConcurrency(c); got != c {
			t.Errorf("batchConcurrency(%d) = %d, want %d", c, got, c)
		}
	}
}

// TestSubmitBatchAggregatesFailures: a batch with several failing jobs
// reports every failure (errors.Join), keeps per-index results for the
// jobs that succeeded, and the typed causes stay reachable via errors.As.
func TestSubmitBatchAggregatesFailures(t *testing.T) {
	s := newService(t)
	s.Sched = newSchedulerWithVC("vc1", 4)
	if _, err := s.Sched.Admit("vc1", 4, s.Clock.Now(), 100000); err != nil {
		t.Fatal(err)
	}
	now := s.Clock.Now()
	ok := specA("okjob", 0)
	bad1 := specA("badjob1", 0)
	bad1.Deadline = now + 5
	bad2 := specB("badjob2", 0)
	bad2.Deadline = now + 7

	results, err := s.RunBatch(context.Background(), []JobSpec{ok, bad1, bad2}, BatchOptions{Concurrency: 2})
	if err == nil {
		t.Fatal("batch with shed jobs returned no error")
	}
	if results[0] == nil || results[1] != nil || results[2] != nil {
		t.Fatalf("per-index results wrong: %v", results)
	}
	for _, id := range []string{"badjob1", "badjob2"} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("aggregated error does not mention %s: %v", id, err)
		}
	}
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonShed {
		t.Fatalf("typed cause lost in aggregation: %v", err)
	}
	if got := s.Snapshot().Recovery.Shed; got != 2 {
		t.Errorf("Shed = %d, want 2", got)
	}
}

// TestMaxInFlightBlocksAndReleases exercises the admission slot pool
// directly: with one slot, a second enter blocks until exit, and a
// cancelled waiter is turned away with its context's error.
func TestMaxInFlightBlocksAndReleases(t *testing.T) {
	s := newService(t)
	s.Config.MaxInFlight = 1
	if err := s.admit.enter(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	second := make(chan error, 1)
	go func() { second <- s.admit.enter(context.Background(), 1) }()
	select {
	case err := <-second:
		t.Fatalf("second enter should block on the full slot pool, returned %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	s.admit.exit()
	if err := <-second; err != nil {
		t.Fatalf("released slot should admit the waiter: %v", err)
	}

	// A waiter whose context dies while queued gets the context error.
	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error, 1)
	go func() { waiting <- s.admit.enter(ctx, 1) }()
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: want context.Canceled, got %v", err)
	}
	s.admit.exit()

	// Functional smoke: a bounded service still completes a wide batch.
	s2 := newService(t)
	s2.Config.MaxInFlight = 2
	var batch []JobSpec
	for i := 0; i < 6; i++ {
		batch = append(batch, specA(fmt.Sprintf("mif%d", i), 0))
	}
	if _, err := s2.RunBatch(context.Background(), batch, BatchOptions{Concurrency: 6}); err != nil {
		t.Fatalf("bounded batch failed: %v", err)
	}
	if got := s2.Snapshot().Scheduler.InFlight; got != 0 {
		t.Errorf("in-flight gauge %d after batch, want 0", got)
	}
}
