// observe.go wires the deterministic observability layer (internal/obs)
// into the service and carries the redesigned public API surface: the
// ctx-first submission pair Run/RunBatch, the single versioned stats
// view Snapshot, and per-job trace export via Trace.
//
// One Observer implements every layer's observability hook (executor
// vertices, view-store reads and writes, metadata lookups, cluster
// admission, analyzer runs, breaker transitions) — the same
// one-object-implements-all-seams shape as fault.Injector. Metrics are
// bumped synchronously at each hook; traces are assembled per job by the
// submitting goroutine from simulated quantities only, so a fixed-seed
// run exports byte-identical trace JSON whether the executor ran the
// plan serially or on the parallel DAG scheduler.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/breaker"
	"cloudviews/internal/cluster"
	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/obs"
	"cloudviews/internal/storage"
)

// Observer owns the service's metrics registry and trace store and
// implements every layer's observability hook. One Observer serves one
// Service; NewService installs one by default, SetObserver(nil) removes
// it (the measured no-op baseline).
type Observer struct {
	metrics *obs.Registry
	traces  *obs.TraceStore // nil = tracing disabled (metrics stay on)

	// Hot-path instruments are resolved once at construction so hooks
	// never touch the registry's name index.
	jobsSubmitted, jobsCompleted, jobsFailed *obs.Counter
	jobsShed, jobsCancelled, jobsDeadline    *obs.Counter
	jobLatency                               *obs.Histogram
	vertices, vertexRetries                  *obs.Counter
	retryWait                                *obs.Histogram
	cacheHits, cacheMisses, consumeErrors    *obs.Counter
	viewsWritten, encodedWritten             *obs.Counter
	metaLookups, metaLookupErrors            *obs.Counter
	metaAnnotations                          *obs.Counter
	schedAdmitted                            *obs.Counter
	schedQueueDepth                          *obs.Gauge
	queueWait                                *obs.Histogram
	breakerTrips, breakerCloses              *obs.Counter
	analyzerRuns, analyzerCandidates         *obs.Counter
	analyzerSelected                         *obs.Counter
	reuseSkipped                             *obs.Counter
}

// Compile-time proof the Observer satisfies every layer's hook seam.
var (
	_ exec.ObsHook     = (*Observer)(nil)
	_ storage.ObsHook  = (*Observer)(nil)
	_ metadata.ObsHook = (*Observer)(nil)
	_ cluster.ObsHook  = (*Observer)(nil)
	_ analyzer.ObsHook = (*Observer)(nil)
)

// NewObserver builds an observer. traceCapacity sizes the per-job trace
// ring: 0 selects obs.DefaultTraceCapacity, negative disables tracing
// entirely (metrics remain live) — the same zero-default / negative-off
// convention as Config.CacheBytes.
func NewObserver(traceCapacity int) *Observer {
	reg := obs.NewRegistry()
	o := &Observer{
		metrics:            reg,
		jobsSubmitted:      reg.Counter("jobs.submitted"),
		jobsCompleted:      reg.Counter("jobs.completed"),
		jobsFailed:         reg.Counter("jobs.failed"),
		jobsShed:           reg.Counter("jobs.shed"),
		jobsCancelled:      reg.Counter("jobs.cancelled"),
		jobsDeadline:       reg.Counter("jobs.deadline_exceeded"),
		jobLatency:         reg.Histogram("job.latency_ticks"),
		vertices:           reg.Counter("exec.vertices"),
		vertexRetries:      reg.Counter("exec.vertex_retries"),
		retryWait:          reg.Histogram("exec.retry_wait_ticks"),
		cacheHits:          reg.Counter("cache.hits"),
		cacheMisses:        reg.Counter("cache.misses"),
		consumeErrors:      reg.Counter("storage.consume_errors"),
		viewsWritten:       reg.Counter("storage.views_written"),
		encodedWritten:     reg.Counter("storage.encoded_bytes_written"),
		metaLookups:        reg.Counter("meta.lookups"),
		metaLookupErrors:   reg.Counter("meta.lookup_errors"),
		metaAnnotations:    reg.Counter("meta.annotations_served"),
		schedAdmitted:      reg.Counter("sched.admitted"),
		schedQueueDepth:    reg.Gauge("sched.queue_depth"),
		queueWait:          reg.Histogram("sched.queue_wait_ticks"),
		breakerTrips:       reg.Counter("breaker.trips"),
		breakerCloses:      reg.Counter("breaker.closes"),
		analyzerRuns:       reg.Counter("analyzer.runs"),
		analyzerCandidates: reg.Counter("analyzer.candidates"),
		analyzerSelected:   reg.Counter("analyzer.selected"),
		reuseSkipped:       reg.Counter("reuse.skipped"),
	}
	if traceCapacity >= 0 {
		o.traces = obs.NewTraceStore(traceCapacity)
	}
	return o
}

// Metrics returns a consistent snapshot of every registered instrument.
func (o *Observer) Metrics() obs.MetricsSnapshot { return o.metrics.Snapshot() }

// vertexMetrics feeds the executor counters for one completed vertex.
func (o *Observer) vertexMetrics(ev exec.VertexEvent) {
	o.vertices.Inc()
	if r := ev.Attempts - 1; r > 0 {
		o.vertexRetries.Add(int64(r))
		o.retryWait.Observe(int64(ev.RetryWait))
	}
}

// VertexDone implements exec.ObsHook (metrics only; per-job tracing uses
// a vertexCollector installed by execute).
func (o *Observer) VertexDone(_ string, ev exec.VertexEvent) { o.vertexMetrics(ev) }

// ViewConsumed implements storage.ObsHook.
func (o *Observer) ViewConsumed(_ string, cacheHit bool, err error) {
	if err != nil {
		o.consumeErrors.Inc()
		return
	}
	if cacheHit {
		o.cacheHits.Inc()
	} else {
		o.cacheMisses.Inc()
	}
}

// ViewWritten implements storage.ObsHook.
func (o *Observer) ViewWritten(_ string, encodedBytes int64, _ bool) {
	o.viewsWritten.Inc()
	o.encodedWritten.Add(encodedBytes)
}

// LookupDone implements metadata.ObsHook.
func (o *Observer) LookupDone(_ string, annotations int, err error) {
	o.metaLookups.Inc()
	if err != nil {
		o.metaLookupErrors.Inc()
		return
	}
	o.metaAnnotations.Add(int64(annotations))
}

// Admitted implements cluster.ObsHook. Invoked under the scheduler's
// lock, so it only touches atomics.
func (o *Observer) Admitted(_ string, _ int, at, start int64, depth int) {
	o.schedAdmitted.Inc()
	o.schedQueueDepth.Set(int64(depth))
	o.queueWait.Observe(start - at)
}

// AnalyzeDone implements analyzer.ObsHook.
func (o *Observer) AnalyzeDone(_, _, candidates, selected int) {
	o.analyzerRuns.Inc()
	o.analyzerCandidates.Add(int64(candidates))
	o.analyzerSelected.Add(int64(selected))
}

// breakerChange is wired as breaker.Breaker.OnStateChange.
func (o *Observer) breakerChange(_ string, from, to breaker.State, _ int64) {
	switch {
	case to == breaker.Open:
		o.breakerTrips.Inc()
	case to == breaker.Closed && from == breaker.HalfOpen:
		o.breakerCloses.Inc()
	}
}

// vertexCollector is the per-execution-attempt executor hook: it feeds
// vertex metrics immediately and, when the job is traced, buffers the
// events for the submitting goroutine to attach under the attempt's
// execute span after the executor joins. Events buffered by a failed
// attempt are discarded — the executor stops at the first error, and
// which sibling vertices had already completed under the DAG scheduler
// is scheduling-dependent, so only successful attempts carry vertex
// children (that is what keeps traces byte-deterministic across
// execution paths).
type vertexCollector struct {
	o      *Observer
	buffer bool
	mu     sync.Mutex
	events []exec.VertexEvent
}

func (c *vertexCollector) VertexDone(_ string, ev exec.VertexEvent) {
	c.o.vertexMetrics(ev)
	if c.buffer {
		c.mu.Lock()
		c.events = append(c.events, ev)
		c.mu.Unlock()
	}
}

// traceBuilder assembles one job's span tree on the submitting
// goroutine. A nil *traceBuilder (observer absent or tracing disabled)
// is fully operational as a no-op: span returns a nil *obs.Span, whose
// Set/Child are themselves nil-safe, so the instrumented pipeline never
// branches on whether tracing is on.
type traceBuilder struct {
	o     *Observer
	trace *obs.Trace
	root  *obs.Span
}

// beginTrace opens a job trace rooted at a "submit" span, or returns nil
// when tracing is off.
func (s *Service) beginTrace(spec JobSpec, now int64) *traceBuilder {
	o := s.obsv
	if o == nil || o.traces == nil {
		return nil
	}
	root := &obs.Span{Name: "submit", Start: float64(now), End: float64(now)}
	if spec.Meta.VC != "" {
		root.Set("vc", spec.Meta.VC)
	}
	return &traceBuilder{o: o, trace: &obs.Trace{JobID: spec.Meta.JobID, Root: root}, root: root}
}

// span adds a direct child of the root span.
func (t *traceBuilder) span(name string, start, end float64, attrs ...obs.Attr) *obs.Span {
	if t == nil {
		return nil
	}
	return t.root.Child(name, start, end, attrs...)
}

// finish stamps the root span's end and outcome and publishes the trace.
func (t *traceBuilder) finish(end float64, err error) {
	if t == nil {
		return
	}
	t.root.End = end
	t.root.Set("outcome", outcomeOf(err))
	t.o.traces.Put(t.trace)
}

// outcomeOf renders a submission outcome as a stable attribute value.
func outcomeOf(err error) string {
	if err == nil {
		return "ok"
	}
	var je *JobError
	if errors.As(err, &je) {
		return je.Reason.String()
	}
	return "error"
}

// errClass coarsely classifies an execution error for trace attributes;
// the classes are stable strings so traces stay comparable across runs.
func errClass(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	}
	var (
		oe *breaker.OpenError
		ce *storage.CorruptError
		nf *storage.NotFoundError
	)
	switch {
	case errors.As(err, &oe):
		return "breaker-open"
	case errors.As(err, &ce):
		return "corrupt-view"
	case errors.As(err, &nf):
		return "missing-view"
	}
	return "error"
}

func itoa(v int) string     { return strconv.Itoa(v) }
func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SetObserver replaces the service's observability layer, wiring o's
// hooks into every layer: executor, view store, metadata service, the
// scheduler (if one is attached), and the dependency breakers. Passing
// nil removes every hook — the no-op baseline the overhead benchmarks
// measure. Like InstallFaults, call it before submissions begin; hooks
// are read without synchronization. A scheduler attached after the last
// SetObserver call is not instrumented until SetObserver runs again
// (NewService installs the default observer before a scheduler can
// exist, so attach Sched, then call s.SetObserver(s.Observer())).
func (s *Service) SetObserver(o *Observer) {
	s.obsv = o
	var (
		execHook  exec.ObsHook
		storeHook storage.ObsHook
		metaHook  metadata.ObsHook
		schedHook cluster.ObsHook
		brkHook   func(string, breaker.State, breaker.State, int64)
	)
	if o != nil {
		execHook, storeHook, metaHook, schedHook, brkHook = o, o, o, o, o.breakerChange
	}
	s.Exec.Obs = execHook
	s.Store.Obs = storeHook
	s.Meta.Obs = metaHook
	if s.Sched != nil {
		s.Sched.Obs = schedHook
	}
	for _, b := range []*breaker.Breaker{s.metaBreaker, s.storeBreaker} {
		if b != nil {
			b.OnStateChange = brkHook
		}
	}
}

// Observer returns the installed observability layer (nil when removed).
func (s *Service) Observer() *Observer { return s.obsv }

// Trace returns the retained trace for jobID. The second result is false
// when the job was never traced or its trace has been evicted. Callers
// must treat the trace as immutable; Trace.JSON renders it as stable
// order-normalized bytes.
func (s *Service) Trace(jobID string) (*obs.Trace, bool) {
	o := s.obsv
	if o == nil || o.traces == nil {
		return nil, false
	}
	return o.traces.Get(jobID)
}

// StatsSchemaVersion identifies the ServiceStats layout; consumers that
// persist snapshots can detect layout changes across releases.
const StatsSchemaVersion = 1

// SchedulerStats is the admission-side slice of a snapshot.
type SchedulerStats struct {
	// InFlight is how many submissions are currently executing.
	InFlight int
	// Draining reports whether Drain has latched the service shut.
	Draining bool
}

// BreakerStats is one dependency breaker's counters at snapshot time.
type BreakerStats struct {
	Dep            string
	State          string
	Opens          int64
	ShortCircuits  int64
	Probes         int64
	ProbeSuccesses int64
	ProbeFailures  int64
}

// ServiceStats is the unified stats surface: one versioned value holding
// every subsystem's counters. Snapshot is the only way to read them.
type ServiceStats struct {
	// SchemaVersion is StatsSchemaVersion at build time.
	SchemaVersion int
	Recovery      RecoveryStats
	Storage       StorageStats
	Scheduler     SchedulerStats
	Breakers      []BreakerStats
	// Metrics is the observability registry's snapshot; empty maps when
	// no observer is installed.
	Metrics obs.MetricsSnapshot
}

// Snapshot reads every subsystem's counters. Safe to call concurrently
// with submissions: each subsystem is read through its own synchronized
// path, so each section is self-consistent, but the sections are read one
// after another and are not one point-in-time view of the whole service.
// Within Recovery, counters bumped together for one event (a quarantine
// and the replan it forces) are never seen half-applied.
func (s *Service) Snapshot() ServiceStats {
	st := ServiceStats{
		SchemaVersion: StatsSchemaVersion,
		Recovery:      s.recovery.snapshot(),
		Storage: StorageStats{
			ResidentEncodedBytes: s.Store.TotalBytes(),
			Views:                s.Store.Len(),
			Cache:                s.Store.CacheStats(),
		},
		Scheduler: s.admit.stats(),
	}
	for _, b := range []*breaker.Breaker{s.metaBreaker, s.storeBreaker} {
		if b == nil {
			continue
		}
		opens, shorts := b.Opens(), b.ShortCircuits()
		st.Recovery.BreakerOpens += opens
		st.Recovery.BreakerShortCircuits += shorts
		st.Breakers = append(st.Breakers, BreakerStats{
			Dep:            b.Name(),
			State:          b.State().String(),
			Opens:          opens,
			ShortCircuits:  shorts,
			Probes:         b.Probes(),
			ProbeSuccesses: b.ProbeSuccesses(),
			ProbeFailures:  b.ProbeFailures(),
		})
	}
	if s.obsv != nil {
		st.Metrics = s.obsv.Metrics()
	}
	return st
}

// Run submits one job through the full CloudViews pipeline under the
// caller's context and records it in the workload repository. This is
// the single-job entry point. User plans are never mutated —
// optimization operates on an internal clone (transparency, §4).
// Cancelling ctx stops the job at the next vertex or chunk boundary,
// releases its build locks and reservations, retracts any views it
// published, and returns a ReasonCancelled JobError.
func (s *Service) Run(ctx context.Context, spec JobSpec) (*JobResult, error) {
	return s.submitAt(ctx, spec, s.Clock.Now())
}

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Concurrency bounds how many jobs of the batch run simultaneously;
	// values ≤ 1 select one worker per CPU.
	Concurrency int
}

// RunBatch submits a batch of jobs with up to opts.Concurrency in
// flight, returning results in submission order. This is the paper's
// operating regime — tens of thousands of concurrent jobs per cluster
// (§2.1) — where build-build and build-consume coordination (§6.5) is
// real: in-flight jobs arbitrate materialization through the metadata
// service's locks, and a view sealed early (§6.4) is visible to every
// other job in the batch immediately.
//
// All jobs share one submission timestamp (the clock at batch start),
// modeling a concurrent arrival wave: admission queueing and lock TTLs
// see the jobs as simultaneous, so a batch job cannot steal a build lock
// another batch job still holds. Outputs are deterministic; which job
// wins a build lock (and therefore pays materialization cost) depends on
// scheduling, exactly as with concurrent submitters in production.
//
// As with Run, user plans are never mutated, so specs may share subtrees
// (or whole plans) with each other and with the caller. Cancelling ctx
// stops every job still in flight. Per-job failures are aggregated with
// errors.Join — results keeps its per-index entries, and each joined
// error is wrapped with the batch index and job ID.
func (s *Service) RunBatch(ctx context.Context, specs []JobSpec, opts BatchOptions) ([]*JobResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	concurrency := batchConcurrency(opts.Concurrency)
	now := s.Clock.Now()
	results := make([]*JobResult, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for i := range specs {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			results[i], errs[i] = s.submitAt(ctx, specs[i], now)
		}(i)
	}
	wg.Wait()
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("core: batch job %d (%s): %w", i, specs[i].Meta.JobID, err))
		}
	}
	return results, errors.Join(joined...)
}

// batchConcurrency resolves the batch concurrency option: ≤ 1 means one
// worker per CPU (a single caller-managed worker is what Run is for).
func batchConcurrency(c int) int {
	if c <= 1 {
		return runtime.GOMAXPROCS(0)
	}
	return c
}

// sortedPaths returns the map's values (sig → path) sorted, for
// deterministic span emission order.
func sortedPaths(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
