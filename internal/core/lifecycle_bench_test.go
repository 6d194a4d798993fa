package core

import (
	"context"
	"errors"
	"testing"
)

// BenchmarkSubmitCancelled measures the lifecycle rejection fast path: the
// cost of turning away a pre-cancelled submission on a fully warmed
// service. This is the overhead budget of the admission gate plus the
// first cancellation checkpoint — every later checkpoint on the happy
// path is the same single ctx.Err() poll, so if this number grows the
// per-vertex and per-chunk polls have grown with it.
func BenchmarkSubmitCancelled(b *testing.B) {
	s := newService(b)
	s.Config.MaxInFlight = 8
	seedHistory(b, s)
	deliver(b, s.Catalog, 1)
	s.BeginInstance(1)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec := specA("bench-cancelled", 1)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(ctx, spec); !errors.Is(err, context.Canceled) {
			b.Fatalf("want context.Canceled, got %v", err)
		}
	}
	b.StopTimer()

	// The fast path must account for every rejection and leak nothing.
	if got := s.Snapshot().Recovery.Cancelled; got < int64(b.N) {
		b.Fatalf("Cancelled counter %d < %d rejections", got, b.N)
	}
	if n := s.Snapshot().Scheduler.InFlight; n != 0 {
		b.Fatalf("%d submissions still in flight after rejection loop", n)
	}
}
