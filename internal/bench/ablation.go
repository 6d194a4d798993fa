package bench

import (
	"context"
	"errors"
	"fmt"
	"io"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/metadata"
	"cloudviews/internal/plan"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// The ablations isolate the design choices DESIGN.md calls out: the
// feedback loop, view physical design, job coordination, early
// materialization, and the per-job view limit. Each is a metric pair
// "with the mechanism" vs "without", measured on the production profile.

// Ablations holds every ablation of one production-profile run.
type Ablations struct {
	Feedback     FeedbackAblationResult
	Design       DesignAblationResult
	Coordination CoordinationAblationResult
	EarlyMat     EarlyMatAblationResult
	ViewLimit    ViewLimitAblationResult
}

// FeedbackAblationResult compares view selection driven by measured
// runtime statistics (the feedback loop, §5.1) against selection driven by
// naive compile-time estimates.
type FeedbackAblationResult struct {
	// Realized total CPU improvement over the consumer instance.
	MeasuredStatsPct float64
	EstimatesPct     float64
}

// DesignAblationResult compares consumer latency when views are laid out
// with the analyzer-elected physical design (§5.3) vs a naive
// single-partition layout.
type DesignAblationResult struct {
	ElectedLatency float64
	NaiveLatency   float64
}

// CoordinationAblationResult compares the realized improvement when jobs
// are submitted in the analyzer's coordinated order (§6.5: builders first)
// vs an adversarial order (all consumers before the builder, as happens
// with concurrent uncoordinated arrival).
type CoordinationAblationResult struct {
	CoordinatedPct   float64
	UncoordinatedPct float64
}

// EarlyMatAblationResult compares recovery cost after a builder crash with
// early materialization on vs off: with early publication the next job
// reuses the checkpointed view; without, it recomputes and rebuilds.
type EarlyMatAblationResult struct {
	EarlyCPU float64
	LateCPU  float64
}

// ViewLimitAblationResult compares realized improvement under different
// per-job materialization limits (§6.2).
type ViewLimitAblationResult struct {
	// ImprovementPct maps limit -> total CPU improvement.
	ImprovementPct map[int]float64
}

// RunAblations runs the shared steps once on the production profile —
// generate, run instance 0 as history, deliver instance 1, run the
// CloudViews-off baseline over it — and measures every ablation against
// that run. It uses its own workload seed, not §7.1's.
func RunAblations() (*Ablations, error) {
	cfg := DefaultProdConfig()
	cfg.Profile.Seed = 2024
	r, err := newRecurring(cfg.Profile)
	if err != nil {
		return nil, err
	}
	all := specs(r.jobs)
	base, err := baseline(r.cat, all)
	if err != nil {
		return nil, err
	}
	baseCPU := totalCPU(base)
	// savedPct runs jobs on a reuse service and returns the total CPU
	// saved against the baseline pass, in percent.
	savedPct := func(anns []metadata.Annotation, maxViews int, jobs []core.JobSpec) (float64, error) {
		rs, err := runAll(reuseService(r.cat, anns, core.Config{MaxViewsPerJob: maxViews}), jobs)
		if err != nil {
			return 0, err
		}
		return (1 - totalCPU(rs)/baseCPU) * 100, nil
	}
	a := &Ablations{ViewLimit: ViewLimitAblationResult{ImprovementPct: map[int]float64{}}}

	// Feedback loop (§5.1) and job coordination (§6.5), over the paper's
	// top-3 selection.
	top, err := analyze(r.hist, cfg.analysis())
	if err != nil {
		return nil, err
	}
	if a.Feedback.MeasuredStatsPct, err = savedPct(top.Annotations, 1, all); err != nil {
		return nil, err
	}
	estCfg := cfg.analysis()
	estCfg.UseEstimates = true
	estCfg.EstimateCost = naiveEstimate
	estCfg.MinCostRatio = 0 // estimate-based ratios are incomparable
	est, err := analyze(r.hist, estCfg)
	if err != nil {
		return nil, err
	}
	if a.Feedback.EstimatesPct, err = savedPct(est.Annotations, 1, all); err != nil {
		return nil, err
	}
	if a.Coordination.CoordinatedPct, err = savedPct(top.Annotations, 1, buildersFirst(all, top.JobOrder)); err != nil {
		return nil, err
	}
	uncoordCPU, err := runUncoordinated(reuseService(r.cat, top.Annotations, core.Config{MaxViewsPerJob: 1}), r.jobs)
	if err != nil {
		return nil, err
	}
	a.Coordination.UncoordinatedPct = (1 - uncoordCPU/baseCPU) * 100

	// Physical design (§5.3) and early materialization (§6.4), over the
	// first two jobs that contain the top view.
	cfg.TopViews = 1
	one, err := analyze(r.hist, cfg.analysis())
	if err != nil {
		return nil, err
	}
	pair := specs(containing(r.jobs, one.Selected[0].NormSig, 2, nil))
	if len(pair) < 2 {
		return nil, errors.New("bench: not enough jobs contain the view")
	}
	if a.Design, err = runDesign(r.cat, one.Annotations, pair); err != nil {
		return nil, err
	}
	if a.EarlyMat.EarlyCPU, err = runAfterCrash(r.cat, one.Annotations, pair, false); err != nil {
		return nil, err
	}
	if a.EarlyMat.LateCPU, err = runAfterCrash(r.cat, one.Annotations, pair, true); err != nil {
		return nil, err
	}

	// Per-job view limit (§6.2), over a wider selection.
	wide, err := analyze(r.hist, analyzer.Config{MinFrequency: 2, MinCostRatio: 0.1, TopK: 12})
	if err != nil {
		return nil, err
	}
	for _, limit := range []int{1, 2, 4} {
		if a.ViewLimit.ImprovementPct[limit], err = savedPct(wide.Annotations, limit, all); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// naiveEstimate mimics the classic what-if-optimizer failure of §5.1:
// fixed per-operator selectivities compound with depth, so deep subgraphs
// — precisely the expensive reductions worth materializing — are estimated
// absurdly cheap, while shallow scans look relatively attractive.
func naiveEstimate(o workload.Observation) float64 {
	cost := 600.0
	for i := 2; i < o.Ops && i < 10; i++ {
		cost *= 0.55
	}
	return cost * float64(o.Ops)
}

// runUncoordinated models uncoordinated concurrent arrival: every job is
// optimized before any finishes, so no job sees another's views. It
// returns the total CPU.
func runUncoordinated(svc *core.Service, jobs []workgen.Job) (float64, error) {
	plans := make([]*plan.Node, len(jobs))
	for i, j := range jobs {
		anns := svc.Meta.RelevantViews(j.Meta.VC, []string{j.Meta.TemplateID, j.Template.Input})
		plans[i], _ = svc.Opt.Optimize(j.Root, j.Meta.JobID, anns, 0)
	}
	var cpu float64
	for i, j := range jobs {
		res, err := svc.Exec.RunCtx(context.Background(), plans[i], j.Meta.JobID, 0, 0)
		if err != nil {
			return 0, err
		}
		cpu += res.TotalCPU
	}
	return cpu, nil
}

// runDesign builds the view twice — once with the elected design, once
// gathered to one partition — and measures the consumer's simulated
// latency against each. A single-partition view collapses the consumer's
// downstream parallelism, which is exactly why §5.3 says poorly designed
// views end up unused.
func runDesign(cat *catalog.Catalog, anns []metadata.Annotation, pair []core.JobSpec) (DesignAblationResult, error) {
	consumerLatency := func(anns []metadata.Annotation) (float64, error) {
		rs, err := runAll(reuseService(cat, anns, core.Config{MaxViewsPerJob: 1}), pair)
		if err != nil {
			return 0, err
		}
		if len(rs[1].Decision.ViewsUsed) == 0 {
			return 0, errors.New("bench: consumer did not reuse")
		}
		return rs[1].Result.Latency, nil
	}
	elected, err := consumerLatency(anns)
	if err != nil {
		return DesignAblationResult{}, err
	}
	naiveAnns := append([]metadata.Annotation(nil), anns...)
	for i := range naiveAnns {
		naiveAnns[i].Props = plan.PhysicalProps{
			Part: plan.Partitioning{Kind: plan.PartSingleton, Count: 1},
		}
	}
	naive, err := consumerLatency(naiveAnns)
	if err != nil {
		return DesignAblationResult{}, err
	}
	return DesignAblationResult{ElectedLatency: elected, NaiveLatency: naive}, nil
}

// crashAtKind is an exec.FaultHook that permanently crashes the first
// operator of the targeted kind — the builder-failure probe for the
// early-materialization ablation.
type crashAtKind struct{ kind plan.OpKind }

func (c crashAtKind) VertexDone(_, _ string, k plan.OpKind, _ int) error {
	if k == c.kind {
		return fmt.Errorf("injected builder crash")
	}
	return nil
}

func (c crashAtKind) VertexDelay(string, string, plan.OpKind) float64 { return 0 }

// runAfterCrash crashes the pair's builder right after its view seals and
// returns the CPU of the job that follows it, under early or late
// publication.
func runAfterCrash(cat *catalog.Catalog, anns []metadata.Annotation, pair []core.JobSpec, late bool) (float64, error) {
	svc := reuseService(cat, anns, core.Config{MaxViewsPerJob: 1, LatePublish: late})
	// The crash is permanent (not Transient), so the vertex-retry loop
	// fails the job on the first attempt.
	svc.Exec.Faults = crashAtKind{plan.OpMaterialize}
	if _, err := svc.Run(context.Background(), pair[0]); err == nil {
		return 0, errors.New("bench: expected injected failure")
	}
	svc.Exec.Faults = nil
	next, err := svc.Run(context.Background(), pair[1])
	if err != nil {
		return 0, err
	}
	return next.Result.TotalCPU, nil
}

// WriteAblations renders one line per ablation, mechanism on vs off.
func WriteAblations(w io.Writer, a *Ablations) {
	fmt.Fprintf(w, "feedback loop (§5.1):         CPU saved %.4g%% with measured statistics, %.4g%% with compile-time estimates\n",
		a.Feedback.MeasuredStatsPct, a.Feedback.EstimatesPct)
	fmt.Fprintf(w, "physical design (§5.3):       consumer latency %.4g with the elected design, %.4g single-partition\n",
		a.Design.ElectedLatency, a.Design.NaiveLatency)
	fmt.Fprintf(w, "job coordination (§6.5):      CPU saved %.4g%% coordinated, %.4g%% uncoordinated\n",
		a.Coordination.CoordinatedPct, a.Coordination.UncoordinatedPct)
	fmt.Fprintf(w, "early materialization (§6.4): recovery CPU %.4g with early publication, %.4g with late\n",
		a.EarlyMat.EarlyCPU, a.EarlyMat.LateCPU)
	v := a.ViewLimit.ImprovementPct
	fmt.Fprintf(w, "per-job view limit (§6.2):    CPU saved %.4g%% (limit 1), %.4g%% (limit 2), %.4g%% (limit 4)\n",
		v[1], v[2], v[4])
}
