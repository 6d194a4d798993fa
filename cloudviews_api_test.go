package cloudviews

// cloudviews_api_test.go pins the public API surface: every re-exported
// observability symbol must resolve at compile time and the Run/RunBatch
// pair must exist with its ctx-first shape.

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// TestAPISurface is a compile-time contract: assigning each method and
// symbol to an explicitly typed variable fails the build if a signature
// drifts. The runtime assertions are minimal sanity.
func TestAPISurface(t *testing.T) {
	cat := facadeCatalog(t)
	svc := NewService(cat, Config{Enabled: true})

	// Submission pair.
	var run func(context.Context, JobSpec) (*JobResult, error) = svc.Run
	var runBatch func(context.Context, []JobSpec, BatchOptions) ([]*JobResult, error) = svc.RunBatch
	// Unified stats and tracing surface.
	var snapshot func() ServiceStats = svc.Snapshot
	var trace func(string) (*Trace, bool) = svc.Trace
	var setObserver func(*ServiceObserver) = svc.SetObserver
	var observer func() *ServiceObserver = svc.Observer
	for _, fn := range []any{run, runBatch, snapshot, trace, setObserver, observer} {
		if fn == nil {
			t.Fatal("nil method value")
		}
	}

	// Re-exported observability types must be usable as values.
	var st ServiceStats = svc.Snapshot()
	if st.SchemaVersion != StatsSchemaVersion {
		t.Fatalf("SchemaVersion = %d, want %d", st.SchemaVersion, StatsSchemaVersion)
	}
	var _ SchedulerStats = st.Scheduler
	var _ []BreakerStats = st.Breakers
	var _ Metrics = st.Metrics
	var _ *ServiceObserver = NewObserver(0)

	res, err := svc.Run(context.Background(), JobSpec{Meta: facadeMeta("api-job"),
		Root: Scan("purchases", "v1", mustSchema(cat, t)).Output("all")})
	if err != nil || res == nil {
		t.Fatalf("Run: %v", err)
	}
	tr, ok := svc.Trace("api-job")
	if !ok {
		t.Fatal("Trace returned no trace for a completed job")
	}
	var root *Span = tr.Root
	if root.Name != "submit" {
		t.Fatalf("root span %q, want submit", root.Name)
	}
	if !bytes.Contains(tr.JSON(), []byte(`"outcome":"ok"`)) {
		t.Fatalf("trace outcome missing: %s", tr.JSON())
	}

	// A pre-cancelled context fails the job with a typed JobError.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = svc.Run(ctx, JobSpec{Meta: facadeMeta("cancelled"),
		Root: Scan("purchases", "v1", mustSchema(cat, t)).Output("all")})
	var je *JobError
	if !errors.As(err, &je) || je.Reason != ReasonCancelled {
		t.Fatalf("pre-cancelled Run: want *JobError{ReasonCancelled}, got %v", err)
	}
}
