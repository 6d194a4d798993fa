// Package core implements the CloudViews controller — the end-to-end
// runtime of paper §4 and §6 that ties the compiler, optimizer, metadata
// service, executor, and workload repository into one job service.
//
// A submitted job flows exactly as in Figure 6: the compiler fetches the
// annotations relevant to the job from the metadata service (one lookup),
// the optimizer rewrites the plan to reuse available views and/or to
// materialize annotated subgraphs, the executor runs the plan, the job
// manager publishes views the moment they are sealed (early
// materialization), and the finished job's plan and runtime statistics are
// reconciled into the workload repository, closing the feedback loop.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/breaker"
	"cloudviews/internal/catalog"
	"cloudviews/internal/cluster"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/fault"
	"cloudviews/internal/metadata"
	"cloudviews/internal/obs"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/storage"
	"cloudviews/internal/workload"
)

// Config carries the service-wide CloudViews switches.
type Config struct {
	// Enabled turns computation reuse on. Off, every job runs untouched.
	Enabled bool
	// MaxViewsPerJob bounds per-job materializations (§6.2); the paper's
	// production evaluation used 1.
	MaxViewsPerJob int
	// VCEnabled, when non-nil, restricts CloudViews to the listed VCs —
	// the per-VC opt-in of §8. Nil means every VC participates.
	VCEnabled map[string]bool
	// ValidateResults additionally executes the unoptimized plan and
	// verifies the outputs match (the output-validation step of §7.1).
	// Expensive; intended for tests and preview deployments.
	ValidateResults bool
	// LatePublish disables early materialization (§6.4): views are
	// registered with the metadata service only when the producing job
	// completes, and a failed job's partially written views are deleted.
	// Exists for the early-materialization ablation; production keeps
	// early publication on.
	LatePublish bool
	// MetadataStrict makes metadata-service lookup failures abort the job
	// instead of degrading to no-reuse. Off (the default) a job whose
	// RelevantViews round trip fails simply runs its original plan — reuse
	// is an optimization, never a dependency.
	MetadataStrict bool
	// CacheBytes sizes the storage hot-view cache (decoded partitions
	// served zero-copy to repeat consumers). Zero keeps the store's
	// default budget; negative disables the cache.
	CacheBytes int64
	// MaxInFlight bounds how many submissions may execute concurrently;
	// excess submissions queue for a slot (respecting their context).
	// Zero means unbounded.
	MaxInFlight int
	// DefaultDeadline, when positive, gives every job without an explicit
	// JobSpec.Deadline an absolute deadline of submission time plus this
	// many logical-clock units. Zero means jobs have no default deadline.
	DefaultDeadline int64
	// BreakerThreshold is the consecutive-failure count that trips a
	// dependency circuit breaker (metadata lookups, view-store reads).
	// Zero selects the default (5); negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long (logical-clock units) an open breaker
	// waits before letting a half-open probe through. Zero selects the
	// default (60).
	BreakerCooldown int64
	// TraceCapacity sizes the observability layer's per-job trace ring
	// (how many finished job traces Service.Trace can still serve). Zero
	// keeps the default capacity with tracing on; negative disables
	// tracing entirely — metrics stay live (same zero-default /
	// negative-off convention as CacheBytes).
	TraceCapacity int
}

// Defaults for the dependency circuit breakers (Config.BreakerThreshold,
// Config.BreakerCooldown).
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 60
)

// JobSpec is one job submission.
type JobSpec struct {
	Meta workload.JobMeta
	// Root is the compiled plan. The service never mutates it.
	Root *plan.Node
	// Tags are the metadata-service lookup keys; when empty they default
	// to the plan's inputs plus the template ID.
	Tags []string
	// Tokens is the job's VC capacity demand (used when a scheduler is
	// attached).
	Tokens int
	// Deadline is the job's absolute logical-clock deadline. A job whose
	// simulated completion time would pass it fails with a ReasonDeadline
	// JobError; one that provably cannot start in time is shed before
	// execution. Zero means no explicit deadline (Config.DefaultDeadline
	// may still apply).
	Deadline int64
}

// JobResult reports one completed job.
type JobResult struct {
	Spec     JobSpec
	Plan     *plan.Node
	Result   *exec.Result
	Decision *optimizer.Decision
	// BaselineResult is set when Config.ValidateResults is on.
	BaselineResult *exec.Result
	// AnnotationsUsed preserves the annotations the optimizer saw — the
	// "job resource" of §6.2 that makes the job reproducible via Replay.
	AnnotationsUsed []metadata.Annotation
	// StartTime/FinishTime are simulated times (queueing included when a
	// scheduler is attached).
	StartTime, FinishTime int64
}

// Service is the CloudViews-enabled job service.
type Service struct {
	Catalog *catalog.Catalog
	Store   *storage.Store
	Meta    *metadata.Service
	Repo    *workload.Repository
	Clock   *cluster.Clock
	Sched   *cluster.Scheduler // optional; nil disables queueing
	Exec    *exec.Executor
	Opt     *optimizer.Optimizer
	Config  Config

	changes  changeTracker
	recovery recoveryCounters
	admit    admission

	// obsv is the installed observability layer (see observe.go); nil
	// after SetObserver(nil).
	obsv *Observer

	// Dependency circuit breakers (nil when Config.BreakerThreshold < 0):
	// metaBreaker guards metadata lookups, storeBreaker guards view-store
	// reads. Both run on the simulated clock.
	metaBreaker  *breaker.Breaker
	storeBreaker *breaker.Breaker
}

// RecoveryStats snapshots the service's fault-recovery and lifecycle
// counters: how many vertex attempts were retried, how many views were
// quarantined after failing integrity/existence checks, how many
// mid-submit replans those quarantines forced, how many jobs skipped
// reuse because the metadata service was unreachable (or its breaker
// open), plus the lifecycle outcomes (shed / deadline / cancelled jobs)
// and the dependency circuit breakers' trip and short-circuit counts.
type RecoveryStats struct {
	VertexRetries    int64
	QuarantinedViews int64
	DegradedReplans  int64
	ReuseSkipped     int64
	// Shed counts jobs rejected by admission control before execution
	// (queue-time estimate past the deadline, or service draining).
	Shed int64
	// DeadlineExceeded counts jobs that failed because their simulated
	// completion time passed their logical-clock deadline.
	DeadlineExceeded int64
	// Cancelled counts jobs stopped by submission-context cancellation.
	Cancelled int64
	// BreakerOpens counts closed→open transitions across the dependency
	// breakers; BreakerShortCircuits counts requests turned away at an
	// open breaker without touching the dependency.
	BreakerOpens         int64
	BreakerShortCircuits int64
}

// recoveryCounters hold the lifecycle and fault-recovery tallies. Writers
// always go through bump, sharing the RWMutex's read side so unrelated
// increments stay concurrent; snapshot takes the write side, so a grouped
// update (e.g. quarantined+replans, bumped together for one quarantine
// event) is never observed half-applied — plain atomic loads could tear
// between the two increments and report a replan without its quarantine.
type recoveryCounters struct {
	mu          sync.RWMutex
	retries     atomic.Int64
	quarantined atomic.Int64
	replans     atomic.Int64
	reuseSkip   atomic.Int64
	shed        atomic.Int64
	deadline    atomic.Int64
	cancelled   atomic.Int64
}

// bump applies a group of counter increments atomically with respect to
// snapshots.
func (r *recoveryCounters) bump(f func()) {
	r.mu.RLock()
	f()
	r.mu.RUnlock()
}

// snapshot reads the counters under the write side of mu, so no grouped
// bump is seen half-applied. The breaker counts are filled in by Snapshot.
func (r *recoveryCounters) snapshot() RecoveryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RecoveryStats{
		VertexRetries:    r.retries.Load(),
		QuarantinedViews: r.quarantined.Load(),
		DegradedReplans:  r.replans.Load(),
		ReuseSkipped:     r.reuseSkip.Load(),
		Shed:             r.shed.Load(),
		DeadlineExceeded: r.deadline.Load(),
		Cancelled:        r.cancelled.Load(),
	}
}

// StorageStats snapshots the storage layer's byte gauges: how many
// encoded view bytes are resident at rest, and what the decoded hot-view
// cache currently holds and has served.
type StorageStats struct {
	// ResidentEncodedBytes is the at-rest footprint of all stored views
	// (columnar payloads, not row representations).
	ResidentEncodedBytes int64
	// Views is the number of stored views.
	Views int
	// Cache reports the decoded hot-view cache: resident entries/bytes
	// plus hit/miss/eviction counters.
	Cache storage.CacheStats
}

// InstallFaults wires one fault injector into every layer of the service:
// executor vertices, the view store, metadata lookups, and (when a
// scheduler is attached) cluster admission. Passing nil removes the hooks.
func (s *Service) InstallFaults(in *fault.Injector) {
	if in == nil {
		s.Exec.Faults = nil
		s.Store.Faults = nil
		s.Meta.Faults = nil
		if s.Sched != nil {
			s.Sched.Faults = nil
		}
		return
	}
	s.Exec.Faults = in
	s.Store.Faults = in
	s.Meta.Faults = in
	if s.Sched != nil {
		s.Sched.Faults = in
	}
}

// NewService wires a complete in-process job service around a catalog.
func NewService(cat *catalog.Catalog, cfg Config) *Service {
	st := storage.NewStore()
	meta := metadata.NewService()
	if cfg.MaxViewsPerJob == 0 {
		cfg.MaxViewsPerJob = 1
	}
	// Storage-initiated reclamation (utility-based eviction, direct
	// purges) must drop the metadata registration before the file goes
	// away, or metadata would briefly advertise views that no longer
	// exist (the §5.4 ordering, enforced from the storage side too).
	st.Deregister = func(preciseSig, _ string) { meta.Unregister(preciseSig) }
	if cfg.CacheBytes != 0 {
		st.SetCacheBudget(cfg.CacheBytes)
	}
	s := &Service{
		Catalog: cat,
		Store:   st,
		Meta:    meta,
		Repo:    workload.NewRepository(),
		Clock:   &cluster.Clock{},
		Exec:    &exec.Executor{Catalog: cat, Store: st},
		Opt: &optimizer.Optimizer{
			Meta:                 meta,
			Est:                  &optimizer.Estimator{Catalog: cat},
			MaxMaterializePerJob: cfg.MaxViewsPerJob,
		},
		Config: cfg,
	}
	if cfg.BreakerThreshold >= 0 {
		thr := cfg.BreakerThreshold
		if thr == 0 {
			thr = defaultBreakerThreshold
		}
		cd := cfg.BreakerCooldown
		if cd == 0 {
			cd = defaultBreakerCooldown
		}
		s.metaBreaker = breaker.New("metadata", thr, cd)
		s.storeBreaker = breaker.New("viewstore", thr, cd)
		// View-store reads flow through the store's admission gate: an
		// open breaker short-circuits the read with OpenError (which the
		// replan loop degrades around), and every real read outcome feeds
		// the breaker.
		st.Gate = func(string) error {
			if !s.storeBreaker.Allow(s.Clock.Now()) {
				return &breaker.OpenError{Dep: "viewstore"}
			}
			return nil
		}
		st.OnConsume = func(_ string, err error) {
			s.storeBreaker.Observe(s.Clock.Now(), err == nil)
		}
	}
	// Observability is on by default: metrics always, tracing unless
	// Config.TraceCapacity < 0. SetObserver(nil) strips every hook.
	s.SetObserver(NewObserver(cfg.TraceCapacity))
	return s
}

// vcEnabled reports whether CloudViews applies to the job's VC.
func (s *Service) vcEnabled(vc string) bool {
	if !s.Config.Enabled {
		return false
	}
	if s.Config.VCEnabled == nil {
		return true
	}
	return s.Config.VCEnabled[vc]
}

// defaultTags derives the metadata lookup tags from the job: its inputs
// (normalized names) and its recurring template ID (§6.1).
func defaultTags(spec JobSpec) []string {
	tags := append([]string(nil), spec.Tags...)
	if len(tags) == 0 {
		tags = plan.Inputs(spec.Root)
		if spec.Meta.TemplateID != "" {
			tags = append(tags, spec.Meta.TemplateID)
		}
	}
	return tags
}

// submitAt is the observability shell around submitJob, shared by the
// serial and batched paths: it counts the submission, opens the job's
// trace, runs the pipeline, then stamps the outcome (completed/failed
// counters, latency histogram, lifecycle-outcome counters, root-span
// attributes) and publishes the finished trace.
func (s *Service) submitAt(ctx context.Context, spec JobSpec, now int64) (*JobResult, error) {
	o := s.obsv
	if o != nil {
		o.jobsSubmitted.Inc()
	}
	tb := s.beginTrace(spec, now)
	jr, err := s.submitJob(ctx, spec, now, tb)
	end := float64(now)
	if err == nil {
		end = float64(jr.FinishTime)
		if o != nil {
			o.jobsCompleted.Inc()
			o.jobLatency.Observe(jr.FinishTime - jr.StartTime)
		}
	} else if o != nil {
		o.jobsFailed.Inc()
		var je *JobError
		if errors.As(err, &je) {
			switch je.Reason {
			case ReasonShed:
				o.jobsShed.Inc()
			case ReasonDeadline:
				o.jobsDeadline.Inc()
			case ReasonCancelled:
				o.jobsCancelled.Inc()
			}
		}
	}
	tb.finish(end, err)
	return jr, err
}

// submitJob runs the lifecycle gauntlet in order: admission (in-flight
// slot, draining latch), deadline resolution, deadline-aware shedding
// against the cluster ledger, then the breaker-gated planning and
// recovering execution pipeline. Every lifecycle failure comes back as a
// typed *JobError. tb may be nil (tracing off).
func (s *Service) submitJob(ctx context.Context, spec JobSpec, now int64, tb *traceBuilder) (*JobResult, error) {
	jobID := spec.Meta.JobID
	if err := s.admit.enter(ctx, s.Config.MaxInFlight); err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	defer s.admit.exit()
	if err := ctx.Err(); err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	adm := tb.span("admission", float64(now), float64(now))

	deadline := s.jobDeadline(spec, now)
	if deadline > 0 && s.Sched != nil {
		// Load shedding: if the ledger says the job cannot even start
		// (minimum duration) before its deadline, reject it up front
		// rather than burn cluster work on a guaranteed deadline miss.
		tokens := spec.Tokens
		if tokens < 1 {
			tokens = 1
		}
		if est, serr := s.Sched.EarliestStart(spec.Meta.VC, tokens, now, 1); serr == nil && est >= deadline {
			s.recovery.bump(func() { s.recovery.shed.Add(1) })
			adm.Set("shed", "deadline-unreachable")
			return nil, &JobError{JobID: jobID, Reason: ReasonShed,
				Err: fmt.Errorf("core: earliest start %d cannot meet deadline %d", est, deadline)}
		}
	}

	jr := &JobResult{Spec: spec, Plan: spec.Root, Decision: &optimizer.Decision{}}

	if s.vcEnabled(spec.Meta.VC) {
		if err := s.planWithReuse(jr, spec, now, tb, 0); err != nil {
			return nil, err
		}
	}

	res, err := s.executeRecovering(ctx, jr, spec, now, deadline, tb)
	if err != nil {
		return nil, s.lifecycleError(jobID, err)
	}
	jr.Result = res
	s.recovery.bump(func() { s.recovery.retries.Add(int64(res.Retries)) })

	// Queueing: reserve VC capacity for the job's simulated duration.
	jr.StartTime = now
	if s.Sched != nil {
		tokens := spec.Tokens
		if tokens < 1 {
			tokens = 1
		}
		start, aerr := s.Sched.Admit(spec.Meta.VC, tokens, now, int64(res.Latency)+1)
		if aerr == nil {
			jr.StartTime = start
			tb.span("schedule", float64(now), float64(start),
				obs.A("vc", spec.Meta.VC), obs.A("tokens", itoa(tokens)))
		}
	}
	jr.FinishTime = jr.StartTime + int64(res.Latency)
	// The simulated clock moves with completed work, so build-lock TTLs
	// (mined average runtimes, §6.1) expire on a meaningful timeline.
	s.Clock.AdvanceTo(jr.FinishTime + 1)

	// Close the feedback loop.
	s.Repo.Record(spec.Meta, jr.Plan, res)

	if s.Config.ValidateResults {
		base, berr := s.runBaseline(spec)
		if berr != nil {
			return nil, fmt.Errorf("core: baseline validation run failed: %w", berr)
		}
		jr.BaselineResult = base
		if err := outputsEqual(base, res); err != nil {
			return nil, fmt.Errorf("core: reuse changed results for job %s: %w", spec.Meta.JobID, err)
		}
	}
	return jr, nil
}

// planWithReuse performs the metadata lookup and reuse optimization for
// one submission attempt, implementing the first rung of the degradation
// ladder: when the metadata service is unreachable (and MetadataStrict is
// off), the job simply keeps its original plan — reuse skipped, counted,
// never fatal. Both dependency breakers gate the attempt: an open
// view-store breaker makes selecting views pointless (reads would only
// short-circuit), and an open metadata breaker skips the lookup without
// touching the unhealthy service at all.
// pass is the planning-pass number: 0 for the initial optimization, ≥ 1
// for quarantine- or breaker-forced replans (stamped on the optimize
// span, and the lookup child is named "re-match" instead of "match").
func (s *Service) planWithReuse(jr *JobResult, spec JobSpec, now int64, tb *traceBuilder, pass int) error {
	tick := float64(now)
	opt := tb.span("optimize", tick, tick)
	if pass > 0 {
		opt.Set("replan", itoa(pass))
	}
	matchName := "match"
	if pass > 0 {
		matchName = "re-match"
	}
	reuseSkip := func(why string) {
		s.recovery.bump(func() { s.recovery.reuseSkip.Add(1) })
		if o := s.obsv; o != nil {
			o.reuseSkipped.Inc()
		}
		opt.Set("decision", "skip-reuse")
		opt.Set("reason", why)
	}
	if s.storeBreaker != nil && !s.storeBreaker.Ready(now) {
		reuseSkip("breaker-open:" + s.storeBreaker.Name())
		jr.Plan = spec.Root
		jr.Decision = &optimizer.Decision{BreakerOpen: s.storeBreaker.Name()}
		jr.AnnotationsUsed = nil
		return nil
	}
	if s.metaBreaker != nil && !s.metaBreaker.Allow(now) {
		reuseSkip("breaker-open:" + s.metaBreaker.Name())
		jr.Plan = spec.Root
		jr.Decision = &optimizer.Decision{MetaUnavailable: true, BreakerOpen: s.metaBreaker.Name()}
		jr.AnnotationsUsed = nil
		return nil
	}
	anns, err := s.Meta.TryRelevantViews(spec.Meta.VC, defaultTags(spec))
	if s.metaBreaker != nil {
		s.metaBreaker.Observe(now, err == nil)
	}
	if err != nil {
		opt.Child(matchName, tick, tick, obs.A("error", "lookup-failed"))
		if s.Config.MetadataStrict {
			return &JobError{JobID: spec.Meta.JobID, Reason: ReasonDependency,
				Err: fmt.Errorf("core: metadata lookup for job %s: %w", spec.Meta.JobID, err)}
		}
		reuseSkip("metadata-unavailable")
		jr.Plan = spec.Root
		jr.Decision = &optimizer.Decision{MetaUnavailable: true}
		jr.AnnotationsUsed = nil
		return nil
	}
	opt.Child(matchName, tick, tick, obs.A("annotations", itoa(len(anns))))
	jr.AnnotationsUsed = annotationsSnapshot(anns)
	jr.Plan, jr.Decision = s.Opt.Optimize(spec.Root, spec.Meta.JobID, anns, now)
	if opt != nil {
		dec := jr.Decision
		opt.Set("views_used", itoa(len(dec.ViewsUsed)))
		opt.Set("views_built", itoa(len(dec.ViewsBuilt)))
		opt.Set("views_rejected", itoa(len(dec.ViewsRejected)))
		opt.Set("est_cost", ftoa(dec.EstimatedCost))
		for _, v := range dec.ViewsUsed {
			opt.Child("inject", tick, tick,
				obs.A("kind", "scan"), obs.A("sig", v.PreciseSig), obs.A("path", v.Path))
		}
		for _, b := range dec.ViewsBuilt {
			opt.Child("inject", tick, tick,
				obs.A("kind", "build"), obs.A("sig", b.PreciseSig), obs.A("path", b.Path))
		}
	}
	return nil
}

// maxReplans bounds the quarantine-and-replan loop. Each round removes one
// broken view from the metadata service, so the loop strictly shrinks the
// reusable set; the bound only guards against pathological plans.
const maxReplans = 4

// executeRecovering is the second rung of the degradation ladder: a job
// whose optimized plan trips over a corrupt or vanished view does not
// fail — the view is quarantined (deregistered from metadata, deleted from
// storage) and the job is transparently re-optimized from its pristine
// plan, which can no longer select the quarantined view. Transient vertex
// failures never reach this level (the executor's retry loop absorbs
// them); permanent non-view failures propagate unchanged.
func (s *Service) executeRecovering(ctx context.Context, jr *JobResult, spec JobSpec, now, deadline int64, tb *traceBuilder) (*exec.Result, error) {
	var quarantined []string
	for replan := 0; ; replan++ {
		res, err := s.execute(ctx, jr.Plan, spec, jr.Decision, now, deadline, tb, replan)
		if err == nil {
			jr.Decision.QuarantinedViews = quarantined
			return res, nil
		}
		// A view read short-circuited by the store's open breaker is not a
		// broken view — the dependency is unhealthy, not the payload. Replan
		// without quarantining: planWithReuse sees the open breaker and
		// degrades the job to its baseline plan.
		var oe *breaker.OpenError
		if errors.As(err, &oe) {
			if replan >= maxReplans || !s.vcEnabled(spec.Meta.VC) {
				return nil, err
			}
			s.recovery.bump(func() { s.recovery.replans.Add(1) })
			if perr := s.planWithReuse(jr, spec, now, tb, replan+1); perr != nil {
				return nil, perr
			}
			continue
		}
		sig, path, ok := viewFailure(err, jr.Decision)
		if !ok || replan >= maxReplans || !s.vcEnabled(spec.Meta.VC) {
			return nil, err
		}
		// Quarantine: deregister first so no new consumer selects the view
		// (the §5.4 ordering), then drop the broken payload.
		if sig != "" {
			s.Meta.Unregister(sig)
		}
		s.Store.Delete(path)
		quarantined = append(quarantined, path)
		// One grouped bump per quarantine event: a Snapshot never
		// sees the replan without its quarantine.
		s.recovery.bump(func() {
			s.recovery.quarantined.Add(1)
			s.recovery.replans.Add(1)
		})
		if err := s.planWithReuse(jr, spec, now, tb, replan+1); err != nil {
			return nil, err
		}
	}
}

// viewFailure classifies an execution error as a recoverable view problem,
// returning the precise signature and path to quarantine. Corrupt views
// carry their own identity; a vanished view is recovered through the
// decision's used-view list (an arbitrary missing path — e.g. a user plan
// scanning a dead view directly — is not recoverable by replanning).
func viewFailure(err error, dec *optimizer.Decision) (sig, path string, ok bool) {
	var ce *storage.CorruptError
	if errors.As(err, &ce) {
		return ce.PreciseSig, ce.Path, true
	}
	var nf *storage.NotFoundError
	if errors.As(err, &nf) {
		for _, v := range dec.ViewsUsed {
			if v.Path == nf.Path {
				return v.PreciseSig, v.Path, true
			}
		}
	}
	return "", "", false
}

// execute runs the plan with the early-materialization hook wired: each
// view is published to the metadata service the instant its files seal,
// and build locks for views that never sealed are released on failure.
// A job stopped by cancellation or a deadline additionally retracts the
// views it already published — a job that did not finish leaves nothing
// behind.
func (s *Service) execute(ctx context.Context, root *plan.Node, spec JobSpec, dec *optimizer.Decision, now, deadline int64, tb *traceBuilder, attempt int) (*exec.Result, error) {
	intents := map[string]optimizer.BuildIntent{}
	for _, b := range dec.ViewsBuilt {
		intents[b.PreciseSig] = b
	}
	// Independent Materialize operators can seal concurrently under the
	// parallel DAG scheduler, so the hook's bookkeeping takes its own
	// lock. The maps are read lock-free after ex.Run returns (all workers
	// have joined by then). sealed maps precise signature → view path so
	// lifecycle retraction can reach the file.
	var hookMu sync.Mutex
	sealed := map[string]string{}
	var pending []metadata.ViewInfo

	ex := *s.Exec // copy so per-job hooks don't race across submissions
	// Per-attempt vertex hook: metrics flow immediately; when the job is
	// traced the events are buffered and attached below, only if this
	// attempt succeeds (see vertexCollector).
	var col *vertexCollector
	if o := s.obsv; o != nil {
		col = &vertexCollector{o: o, buffer: tb != nil}
		ex.Obs = col
	}
	ex.OnViewMaterialized = func(v *storage.View) {
		intent, ok := intents[v.PreciseSig]
		if !ok {
			return
		}
		// Stamp the absolute expiry (instance units) into the file.
		v.ExpiresAt = spec.Meta.Instance + intent.ExpiryDelta
		info := metadata.ViewInfo{
			PreciseSig: v.PreciseSig,
			NormSig:    v.NormSig,
			Path:       v.Path,
			Schema:     v.Schema,
			Props:      v.Props,
			Rows:       v.Rows,
			// Bytes is the logical (row-representation) size the cost model
			// prices a view scan on; EncodedBytes is the smaller at-rest
			// columnar footprint storage actually holds.
			Bytes:         v.LogicalBytes,
			EncodedBytes:  v.Bytes,
			ProducerJobID: spec.Meta.JobID,
			ExpiresAt:     v.ExpiresAt,
		}
		if s.Config.LatePublish {
			// Ablation mode: hold publication until the job completes.
			hookMu.Lock()
			pending = append(pending, info)
			hookMu.Unlock()
			return
		}
		// Early materialization (§6.4): consumers may use the view while
		// this job is still running.
		s.Meta.ReportMaterialized(info)
		s.changes.recordBuild()
		hookMu.Lock()
		sealed[v.PreciseSig] = v.Path
		hookMu.Unlock()
	}

	res, err := ex.RunCtx(ctx, root, spec.Meta.JobID, now, deadline)
	if err != nil {
		// Early mode: views already sealed survive (checkpoint
		// semantics); locks for unsealed views are released so another
		// job can build them. Late mode: unpublished files are deleted
		// too — the job is atomic, nothing survives.
		for _, p := range pending {
			s.Store.Delete(p.Path)
		}
		for sig := range intents {
			if _, ok := sealed[sig]; !ok {
				s.Meta.AbortMaterialize(sig, spec.Meta.JobID)
			}
		}
		// A cancelled or deadline-failed job is not a checkpoint — it must
		// leave nothing published. Retract early-published views too:
		// deregister before deleting the file (the §5.4 ordering), so an
		// in-flight consumer degrades via the quarantine path instead of
		// reading a dangling registration.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			for sig, path := range sealed {
				s.Meta.Unregister(sig)
				s.Store.Delete(path)
			}
			tick := float64(now)
			for _, path := range sortedPaths(sealed) {
				tb.span("retract", tick, tick, obs.A("path", path))
			}
		}
		// A failed attempt gets an outcome-only execute span: its buffered
		// vertex events are discarded because which siblings had already
		// completed is scheduling-dependent under the DAG executor.
		tb.span("execute", float64(now), float64(now),
			obs.A("attempt", itoa(attempt)), obs.A("error", errClass(err)))
		return nil, err
	}
	for _, p := range pending {
		s.Meta.ReportMaterialized(p)
		s.changes.recordBuild()
		sealed[p.PreciseSig] = p.Path
	}
	if len(sealed) < len(intents) {
		// An intended view never sealed: this job's Materialize lost the
		// first-writer-wins race to a builder that took over its expired
		// lock. Release any lock still held and keep only the views this
		// job actually published in its decision.
		kept := dec.ViewsBuilt[:0]
		for _, b := range dec.ViewsBuilt {
			if _, ok := sealed[b.PreciseSig]; ok {
				kept = append(kept, b)
			} else {
				s.Meta.AbortMaterialize(b.PreciseSig, spec.Meta.JobID)
			}
		}
		dec.ViewsBuilt = kept
	}
	if tb != nil && col != nil {
		// All executor workers have joined; col.events is read lock-free.
		// Every quantity below is simulated (ticks, rows, simulated CPU),
		// so the span tree is identical across serial and DAG execution —
		// export order-normalization handles the arrival order.
		exSpan := tb.span("execute", float64(now), float64(now)+res.Latency,
			obs.A("attempt", itoa(attempt)))
		matEnd := map[string]float64{}
		for _, ev := range col.events {
			sp := exSpan.Child(ev.Kind, ev.Start, ev.End,
				obs.A("site", ev.Site), obs.A("rows", itoa64(ev.Rows)),
				obs.A("bytes", itoa64(ev.Bytes)), obs.A("cpu", ftoa(ev.CPU)))
			if ev.Attempts > 1 {
				sp.Set("attempts", itoa(ev.Attempts))
				sp.Set("retry_wait", ftoa(ev.RetryWait))
			}
			if ev.FaultDelay > 0 {
				sp.Set("fault_delay", ftoa(ev.FaultDelay))
			}
			switch {
			case ev.Cache != "": // view scan: decode (verify included) or cache hit
				sp.Child("storage.decode", ev.Start, ev.End,
					obs.A("path", ev.ViewPath), obs.A("cache", ev.Cache))
			case ev.ViewPath != "": // materialize: columnar encode
				sp.Child("storage.encode", ev.Start, ev.End, obs.A("path", ev.ViewPath))
				matEnd[ev.ViewPath] = ev.End
			}
		}
		// Publication spans: one per sealed view, at the tick its encode
		// finished (early materialization) or the job's end (late mode).
		jobEnd := float64(now) + res.Latency
		for _, path := range sortedPaths(sealed) {
			at := jobEnd
			if t, ok := matEnd[path]; ok {
				at = t
			}
			tb.span("publish", at, at, obs.A("path", path))
		}
	}
	return res, nil
}

// runBaseline executes the unoptimized plan against a scratch view store
// so validation can never interfere with real materializations.
func (s *Service) runBaseline(spec JobSpec) (*exec.Result, error) {
	ex := exec.Executor{Catalog: s.Catalog, Store: storage.NewStore()}
	return ex.RunCtx(context.Background(), spec.Root, spec.Meta.JobID+"-baseline", s.Clock.Now(), 0)
}

func outputsEqual(a, b *exec.Result) error {
	if len(a.Outputs) != len(b.Outputs) {
		return fmt.Errorf("output sink count %d vs %d", len(a.Outputs), len(b.Outputs))
	}
	for name, rows := range a.Outputs {
		other, ok := b.Outputs[name]
		if !ok {
			return fmt.Errorf("missing output %q", name)
		}
		if !data.RowsEqual(rows, other) {
			return fmt.Errorf("output %q differs", name)
		}
	}
	return nil
}

// RunAnalyzer executes the CloudViews analyzer over the workload
// repository and installs the resulting annotations into the metadata
// service — one bulk swap either way. An unscoped run replaces the whole
// annotation set (LoadAnalysis); a scoped run (cluster/BU/VC filters) saw
// only its slice of the workload, so its output is merged with SaveAll
// rather than clobbering the annotations other scopes are serving. It
// returns the analysis for reporting.
func (s *Service) RunAnalyzer(cfg analyzer.Config) *analyzer.Analysis {
	a := analyzer.New(s.Repo)
	if s.obsv != nil {
		a.Obs = s.obsv
	}
	an := a.Analyze(cfg)
	if len(cfg.Clusters)+len(cfg.BusinessUnits)+len(cfg.VCs) > 0 {
		s.Meta.SaveAll(an.Annotations)
	} else {
		s.Meta.LoadAnalysis(an.Annotations)
	}
	return an
}

// RunOfflinePhase pre-materializes the offline-annotated subgraphs of a
// job ahead of the workload (§6.2's offline mode for tenants with slack).
// It returns the number of views built.
func (s *Service) RunOfflinePhase(spec JobSpec) (int, error) {
	if !s.vcEnabled(spec.Meta.VC) {
		return 0, nil
	}
	now := s.Clock.Now()
	anns := s.Meta.RelevantViews(spec.Meta.VC, defaultTags(spec))
	plans, intents := s.Opt.OfflineViewPlans(spec.Root, spec.Meta.JobID, anns, now)
	built := 0
	for i, p := range plans {
		dec := &optimizer.Decision{ViewsBuilt: []optimizer.BuildIntent{intents[i]}}
		if _, err := s.execute(context.Background(), p, spec, dec, now, 0, nil, 0); err != nil {
			return built, err
		}
		built++
	}
	return built, nil
}

// BeginInstance advances the service to recurring instance i: expired view
// registrations are purged from the metadata service first, then the
// physical files are deleted — the §5.4 ordering that keeps in-flight
// consumers safe.
func (s *Service) BeginInstance(i int64) {
	s.changes.roll()
	for _, path := range s.Meta.PurgeExpired(i) {
		s.Store.Delete(path)
	}
	// Views that never made it into the metadata service (crashed
	// builders) are reclaimed straight from storage.
	for _, v := range s.Store.Views() {
		if v.ExpiresAt <= i {
			if _, ok := s.Meta.LookupView(v.PreciseSig); !ok {
				s.Store.Delete(v.Path)
			}
		}
	}
}
