package exec

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cloudviews/internal/plan"
)

// cancelHook cancels a context from inside the run: after the n-th vertex
// completes, the job's context is cancelled, so the next vertex-boundary
// checkpoint must stop the job.
type cancelHook struct {
	cancel context.CancelFunc
	after  int

	mu   sync.Mutex
	seen int
}

func (h *cancelHook) VertexDone(_, _ string, _ plan.OpKind, _ int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seen++
	if h.seen == h.after {
		h.cancel()
	}
	return nil
}

func (h *cancelHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestRunCtxPreCancelled: a context cancelled before the run starts stops
// the job at the first checkpoint — no output, typed cause.
func TestRunCtxPreCancelled(t *testing.T) {
	e := env(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := e.RunCtx(ctx, retryPlan(), "pre", 0, 0)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled with nil result, got res=%v err=%v", res, err)
	}
}

// TestRunCtxCancelMidRun: cancelling after the first vertex completes
// stops the job cooperatively on both execution paths; the error carries
// context.Canceled and never a partial result.
func TestRunCtxCancelMidRun(t *testing.T) {
	for _, serial := range []bool{false, true} {
		e := env(t)
		e.Serial = serial
		ctx, cancel := context.WithCancel(context.Background())
		e.Faults = &cancelHook{cancel: cancel, after: 1}
		res, err := e.RunCtx(ctx, retryPlan(), "mid", 0, 0)
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: want context.Canceled with nil result, got res=%v err=%v", serial, res, err)
		}
		cancel()
	}
}

// crashAndCancelHook fails one operator kind transiently forever and
// cancels the context on its first failure: the vertex has attempts left,
// so only the retry loop's pre-retry checkpoint can stop the job.
type crashAndCancelHook struct {
	kind   plan.OpKind
	cancel context.CancelFunc

	mu    sync.Mutex
	fired int
}

func (h *crashAndCancelHook) VertexDone(_, site string, k plan.OpKind, _ int) error {
	if k != h.kind {
		return nil
	}
	h.mu.Lock()
	h.fired++
	if h.fired == 1 {
		h.cancel()
	}
	h.mu.Unlock()
	return transientErr{"crash " + site}
}

func (h *crashAndCancelHook) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// TestRunCtxCancelDoesNotBurnRetries: a cancelled job must not keep
// re-running a crashing vertex — the pre-retry checkpoint stops it even
// when the underlying failure is transient and attempts remain.
func TestRunCtxCancelDoesNotBurnRetries(t *testing.T) {
	e := env(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook := &crashAndCancelHook{kind: plan.OpSort, cancel: cancel}
	e.Faults = hook
	_, err := e.RunCtx(ctx, retryPlan(), "noretry", 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if hook.fired != 1 {
		t.Fatalf("crashing vertex ran %d times after cancellation, want 1 (no retries burned)", hook.fired)
	}
}

// TestRunCtxDeadline: a deadline tighter than the plan's simulated latency
// fails with context.DeadlineExceeded; a looser one does not. The failure
// is identical on the serial walk and the DAG scheduler — the deadline is
// judged on simulated time, which does not depend on the schedule.
func TestRunCtxDeadline(t *testing.T) {
	clean, err := env(t).RunCtx(context.Background(), retryPlan(), "clean", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Latency <= 1 {
		t.Fatalf("plan latency %v too small to test a deadline", clean.Latency)
	}

	var msgs [2]string
	for i, serial := range []bool{false, true} {
		e := env(t)
		e.Serial = serial
		// Deadline of 1 logical unit: the first real vertex blows it.
		res, derr := e.RunCtx(context.Background(), retryPlan(), "tight", 0, 1)
		if res != nil || !errors.Is(derr, context.DeadlineExceeded) {
			t.Fatalf("serial=%v: want DeadlineExceeded, got res=%v err=%v", serial, res, derr)
		}
		msgs[i] = derr.Error()

		// Deadline past the full latency: unaffected.
		ok, oerr := e.RunCtx(context.Background(), retryPlan(), "loose", 0, int64(clean.Latency)+10)
		if oerr != nil {
			t.Fatalf("serial=%v: loose deadline failed the job: %v", serial, oerr)
		}
		if len(ok.Outputs["o"]) == 0 {
			t.Fatalf("serial=%v: loose-deadline run produced no output", serial)
		}
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("deadline error diverges across schedulers:\n dag:    %s\n serial: %s", msgs[0], msgs[1])
	}
}
