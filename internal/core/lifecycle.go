// lifecycle.go implements end-to-end job lifecycle control for the
// service: typed job-failure classification (cancelled / deadline /
// shed / dependency), admission control with bounded in-flight slots
// and deadline-aware load shedding, and Drain for orderly shutdown.
//
// Deadlines are expressed on the simulated logical clock, not wall
// time: a job's completion time is its submission time plus simulated
// latency, so whether a deadline is exceeded is a pure function of the
// plan and the ledger — byte-deterministic across runs. Cancellation
// uses real context.Context plumbing (the executor polls at vertex and
// chunk boundaries), since cancellation is inherently asynchronous.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"cloudviews/internal/breaker"
)

// JobErrorReason classifies why the lifecycle layer failed a job.
type JobErrorReason int

const (
	// ReasonCancelled: the submission context was cancelled mid-flight.
	ReasonCancelled JobErrorReason = iota
	// ReasonDeadline: the job's simulated completion time passed its
	// logical-clock deadline.
	ReasonDeadline
	// ReasonShed: admission control rejected the job before execution —
	// either the queue-time estimate provably missed the deadline, or
	// the service was draining.
	ReasonShed
	// ReasonDependency: a hard dependency (metadata service in strict
	// mode) failed and could not be degraded around.
	ReasonDependency
)

func (r JobErrorReason) String() string {
	switch r {
	case ReasonCancelled:
		return "cancelled"
	case ReasonDeadline:
		return "deadline"
	case ReasonShed:
		return "shed"
	case ReasonDependency:
		return "dependency"
	}
	return fmt.Sprintf("JobErrorReason(%d)", int(r))
}

// JobError is the typed failure the service returns for lifecycle
// outcomes: the job that failed, why, and the underlying cause.
// errors.Is/As reach the cause through Unwrap.
type JobError struct {
	JobID  string
	Reason JobErrorReason
	Err    error
}

func (e *JobError) Error() string {
	return fmt.Sprintf("core: job %s %s: %v", e.JobID, e.Reason, e.Err)
}

func (e *JobError) Unwrap() error { return e.Err }

// ErrDraining is the cause inside the JobError a submission receives
// when the service has begun draining and no longer admits jobs.
var ErrDraining = errors.New("core: service draining, not admitting jobs")

// admission is the in-flight gate in front of submitAt: a bounded slot
// pool (when MaxInFlight > 0) plus the draining latch Drain flips.
// Initialization is lazy (first submission or Drain) so tests may set
// Config.MaxInFlight any time before first use.
type admission struct {
	initOnce sync.Once
	mu       sync.Mutex
	cond     *sync.Cond
	slots    chan struct{} // nil = unbounded
	inFlight int
	draining bool
}

func (a *admission) init(maxInFlight int) {
	a.initOnce.Do(func() {
		a.cond = sync.NewCond(&a.mu)
		if maxInFlight > 0 {
			a.slots = make(chan struct{}, maxInFlight)
		}
	})
}

// enter blocks until an in-flight slot is free (or ctx is done) and
// registers the job. It fails with ErrDraining if the service is
// draining — checked both before and after the slot wait, so a job
// that was queued when Drain began is still turned away.
func (a *admission) enter(ctx context.Context, maxInFlight int) error {
	a.init(maxInFlight)
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return ErrDraining
	}
	a.mu.Unlock()
	if a.slots != nil {
		select {
		case a.slots <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		if a.slots != nil {
			<-a.slots
		}
		return ErrDraining
	}
	a.inFlight++
	a.mu.Unlock()
	return nil
}

// exit releases the job's slot and wakes Drain when the service runs dry.
func (a *admission) exit() {
	if a.slots != nil {
		<-a.slots
	}
	a.mu.Lock()
	a.inFlight--
	if a.inFlight == 0 {
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// stats reads the in-flight count and the draining latch together.
func (a *admission) stats() SchedulerStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return SchedulerStats{InFlight: a.inFlight, Draining: a.draining}
}

// Drain stops admitting jobs (subsequent submissions fail with a
// ReasonShed JobError wrapping ErrDraining), waits for every in-flight
// job to run down, and — when journal is non-nil — flushes the metadata
// service's state to it so a restarted service can warm-start. ctx
// bounds the wait; if it expires the service stays draining but the
// remaining in-flight count is reported in the error.
func (s *Service) Drain(ctx context.Context, journal io.Writer) error {
	a := &s.admit
	a.init(s.Config.MaxInFlight)
	a.mu.Lock()
	a.draining = true
	// cond.Wait cannot watch ctx directly; mirror ctx expiry into a
	// broadcast so the wait loop re-checks and gives up.
	stop := context.AfterFunc(ctx, func() {
		a.mu.Lock()
		a.cond.Broadcast()
		a.mu.Unlock()
	})
	defer stop()
	for a.inFlight > 0 && ctx.Err() == nil {
		a.cond.Wait()
	}
	left := a.inFlight
	a.mu.Unlock()
	if left > 0 {
		return fmt.Errorf("core: drain interrupted with %d jobs in flight: %w", left, ctx.Err())
	}
	if journal != nil {
		if err := s.Meta.Save(journal); err != nil {
			return fmt.Errorf("core: drain journal flush: %w", err)
		}
	}
	return nil
}

// jobDeadline resolves a submission's absolute logical-clock deadline:
// the explicit per-job deadline wins, else the service default (relative
// to submission time), else none.
func (s *Service) jobDeadline(spec JobSpec, now int64) int64 {
	if spec.Deadline > 0 {
		return spec.Deadline
	}
	if d := s.Config.DefaultDeadline; d > 0 {
		return now + d
	}
	return 0
}

// lifecycleError maps an execution or admission failure onto the typed
// JobError taxonomy and bumps the matching counter. Errors that already
// are JobErrors, and errors outside the taxonomy, pass through.
func (s *Service) lifecycleError(jobID string, err error) error {
	var je *JobError
	if errors.As(err, &je) {
		return err
	}
	switch {
	case errors.Is(err, ErrDraining):
		s.recovery.bump(func() { s.recovery.shed.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonShed, Err: err}
	case errors.Is(err, context.DeadlineExceeded):
		s.recovery.bump(func() { s.recovery.deadline.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonDeadline, Err: err}
	case errors.Is(err, context.Canceled):
		s.recovery.bump(func() { s.recovery.cancelled.Add(1) })
		return &JobError{JobID: jobID, Reason: ReasonCancelled, Err: err}
	}
	var oe *breaker.OpenError
	if errors.As(err, &oe) {
		return &JobError{JobID: jobID, Reason: ReasonDependency, Err: err}
	}
	return err
}
