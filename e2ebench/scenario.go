package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/bench"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// clients is the closed loop's client count: each client submits its next
// job only after the previous one returns.
const clients = 2

// setupTimes splits one set-up into input generation, the history or
// baseline pass, and the first analysis.
type setupTimes struct {
	gen, history, analyze time.Duration
}

func (s setupTimes) total() time.Duration { return s.gen + s.history + s.analyze }

// baseJob is one job's CloudViews-off result: the reference its
// CloudViews runs are checked against and the base of the sim_* savings.
type baseJob struct {
	digest  uint64
	latency float64
	cpu     float64
}

// periodInput is one day (recurring workloads) or round (TPC-DS): the jobs
// in submission order, each with a private plan clone, and their
// CloudViews-off results. The first serial jobs run one at a time before
// the clients start.
type periodInput struct {
	id     int64
	jobs   []core.JobSpec
	base   []baseJob
	serial int
}

// scenario is one workload. Its inputs come from the seed alone, and the
// service sees only the generated jobs.
type scenario interface {
	// setup generates the inputs, runs the history or baseline pass with
	// CloudViews off, and runs the first analysis.
	setup() (setupTimes, error)
	// prepare computes period p's CloudViews-off results, once.
	prepare(p int) error
	// period makes period p's data current and returns its jobs, with
	// their CloudViews-off results. Untimed.
	period(p int) (*periodInput, error)
	// service returns the service period p runs on, given the one the
	// previous period ran on (nil for the first).
	service(p int, prev *core.Service) *core.Service
	// before and after are the timed service maintenance around a
	// period's jobs.
	before(p int, svc *core.Service, ops layerOps)
	after(p int, svc *core.Service, ops layerOps)
	// periodsPerSecond is the workload's period rate on the machine the
	// benchmark was calibrated on (2 CPUs): --seconds times it fixes a
	// run's work, so every version of the program runs the same periods.
	periodsPerSecond() float64
	// sizes states the input sizes for the provenance record.
	sizes() map[string]any
	// firstAnalysis is set-up's analysis and the repository observations
	// it scanned.
	firstAnalysis() (*analyzer.Analysis, int)
}

// specsOf turns generated jobs into submissions, each on a private clone
// of its plan (plans memoize derived state in place).
func specsOf(jobs []workgen.Job) []core.JobSpec {
	specs := make([]core.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = core.JobSpec{Meta: j.Meta, Root: plan.Clone(j.Root)}
	}
	return specs
}

// history runs jobs through a CloudViews-off service and keeps each job's
// result as its CloudViews-off reference. Set-up feeds the service's
// workload repository to the first analysis; later periods discard it.
func history(cat *catalog.Catalog, jobs []core.JobSpec) ([]baseJob, *core.Service, error) {
	svc := core.NewService(cat, core.Config{TraceCapacity: -1})
	res, err := svc.RunBatch(context.Background(), jobs, core.BatchOptions{Concurrency: clients})
	if err != nil {
		return nil, nil, fmt.Errorf("CloudViews-off pass: %w", err)
	}
	out := make([]baseJob, len(res))
	for i, r := range res {
		out[i] = baseOf(r.Result)
	}
	return out, svc, nil
}

func baseOf(res *exec.Result) baseJob {
	return baseJob{digest: digestOutputs(res), latency: res.Latency, cpu: res.TotalCPU}
}

// recurring is the paper's daily feedback loop (§6.2): each day's data is
// delivered, expired views are purged, the day's jobs run, and the
// analyzer re-runs over that day. The profile's own seed fixes the
// customer's templates, as TPC-DS fixes its queries; the run's seed
// generates the rows delivered every day.
type recurring struct {
	profile   workgen.Profile
	dataSeed  int64
	cfg       analyzer.Config
	perSecond float64 // days per second, see scenario.periodsPerSecond

	w       *workgen.Workload
	first   *analyzer.Analysis
	scanned int
	jobs0   int
	base    map[int64][]baseJob
}

// recurringAnalysis is the daily analyzer configuration: overlaps seen at
// least twice, costing at least a tenth of their job, one view per job and
// no top-k cut.
func recurringAnalysis() analyzer.Config {
	return analyzer.Config{MinFrequency: 2, MinCostRatio: 0.1, MaxPerJob: 1}
}

// newHighShare is the §7.1 heavy-sharing customer: small jobs, deep
// sharing, short private tails.
func newHighShare(seed int64) *recurring {
	return &recurring{profile: bench.DefaultProdConfig().Profile, dataSeed: seed, cfg: recurringAnalysis(), perSecond: 7}
}

// newLowShare is a cluster3-like profile: few clones, mostly private
// inputs, side branches, so most jobs find no view. Its templates come
// from the same profile seed as the high-share customer's.
func newLowShare(seed int64) *recurring {
	p := workgen.DefaultProfile("cluster3", bench.DefaultProdConfig().Profile.Seed)
	p.Templates = 420
	p.CloneRate = 0.1
	p.UniqueInputRate = 0.9
	p.MaxSideBranches = 2
	return &recurring{profile: p, dataSeed: seed, cfg: recurringAnalysis(), perSecond: 3.5}
}

func (r *recurring) setup() (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	w := workgen.Generate(r.profile)
	w.Profile.Seed = r.dataSeed // DeliverInstance draws rows from Profile.Seed
	w.DeliverInstance(0)
	jobs := specsOf(w.JobsForInstance(0))
	t1 := time.Now()
	_, hist, err := history(w.Catalog, jobs)
	if err != nil {
		return st, fmt.Errorf("history day: %w", err)
	}
	t2 := time.Now()
	an := analyzer.New(hist.Repo).Analyze(r.cfg)
	t3 := time.Now()
	r.w, r.first, r.jobs0, r.base = w, an, len(jobs), map[int64][]baseJob{}
	r.scanned = len(hist.Repo.Snapshot())
	return setupTimes{gen: t1.Sub(t0), history: t2.Sub(t1), analyze: t3.Sub(t2)}, nil
}

func (r *recurring) prepare(p int) error {
	day := int64(p + 1)
	if _, ok := r.base[day]; ok {
		return nil
	}
	r.w.DeliverInstance(day)
	b, _, err := history(r.w.Catalog, specsOf(r.w.JobsForInstance(day)))
	if err != nil {
		return fmt.Errorf("day %d: %w", day, err)
	}
	r.base[day] = b
	return nil
}

func (r *recurring) period(p int) (*periodInput, error) {
	if err := r.prepare(p); err != nil {
		return nil, err
	}
	day := int64(p + 1)
	r.w.DeliverInstance(day)
	return &periodInput{id: day, jobs: specsOf(r.w.JobsForInstance(day)), base: r.base[day]}, nil
}

func (r *recurring) service(_ int, prev *core.Service) *core.Service {
	if prev != nil {
		return prev
	}
	svc := core.NewService(r.w.Catalog, core.Config{Enabled: true, MaxViewsPerJob: 1})
	svc.Meta.LoadAnalysis(r.first.Annotations)
	return svc
}

func (r *recurring) before(p int, svc *core.Service, ops layerOps) {
	ops.beginInstance(svc, int64(p+1))
}

func (r *recurring) after(p int, svc *core.Service, ops layerOps) {
	cfg := r.cfg
	cfg.WindowFrom, cfg.WindowTo = int64(p+1), int64(p+1)
	ops.analyze(svc, cfg)
}

func (r *recurring) periodsPerSecond() float64 { return r.perSecond }

func (r *recurring) firstAnalysis() (*analyzer.Analysis, int) { return r.first, r.scanned }

func (r *recurring) sizes() map[string]any {
	return map[string]any{
		"templates":       r.profile.Templates,
		"template_seed":   r.profile.Seed,
		"history_jobs":    r.jobs0,
		"first_selected":  len(r.first.Selected),
		"rows_per_input":  r.profile.RowsPerInput,
		"period":          "day",
		"clone_rate":      r.profile.CloneRate,
		"unique_inputs":   r.profile.UniqueInputRate,
		"max_side_branch": r.profile.MaxSideBranches,
	}
}

// tpcdsRounds runs all 99 TPC-DS queries per round, each round on a fresh
// CloudViews service loaded with the baseline pass's analysis: the
// analyzer's builder jobs first, one at a time, then the rest through the
// clients.
type tpcdsRounds struct {
	scale      float64
	seed       int64
	cacheBytes int64
	cfg        analyzer.Config

	cat     *catalog.Catalog
	queries []tpcds.Query
	first   *analyzer.Analysis
	scanned int
	order   []int // query indexes in submission order
	serial  int
	base    []baseJob // by query index
}

// newTPCDS is TPC-DS at the given scale with the top 10 views and a
// decoded-view cache below the round's working set.
func newTPCDS(seed int64, scale float64) *tpcdsRounds {
	return &tpcdsRounds{
		scale: scale, seed: seed, cacheBytes: 4 << 20,
		cfg: analyzer.Config{MinFrequency: 3, MinCostRatio: 0.05, TopK: 10},
	}
}

func tpcdsMeta(q tpcds.Query) workload.JobMeta {
	return workload.JobMeta{
		JobID: q.Name, Cluster: "tpcds", BusinessUnit: "tpcds",
		VC: "tpcds_vc", User: "bench", TemplateID: q.Name, Period: 1,
	}
}

func (t *tpcdsRounds) specs() []core.JobSpec {
	specs := make([]core.JobSpec, len(t.queries))
	for i, q := range t.queries {
		specs[i] = core.JobSpec{Meta: tpcdsMeta(q), Root: plan.Clone(q.Root)}
	}
	return specs
}

func (t *tpcdsRounds) setup() (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cat := tpcds.Generate(t.scale, t.seed)
	queries := (&tpcds.Builder{Cat: cat}).Queries()
	t.cat, t.queries = cat, queries
	specs := t.specs()
	t1 := time.Now()
	base, svc, err := history(cat, specs)
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	an := analyzer.New(svc.Repo).Analyze(t.cfg)
	t3 := time.Now()
	t.first, t.base, t.scanned = an, base, len(svc.Repo.Snapshot())

	// Builders named by the analyzer's job order first, in that order,
	// then the rest by query position.
	rank := map[string]int{}
	for i, id := range an.JobOrder {
		rank[id] = i
	}
	key := func(i int) int {
		if r, ok := rank[queries[i].Name]; ok {
			return r
		}
		return len(rank)
	}
	t.order = make([]int, len(queries))
	for i := range t.order {
		t.order[i] = i
	}
	sort.SliceStable(t.order, func(a, b int) bool { return key(t.order[a]) < key(t.order[b]) })
	t.serial = len(rank)
	return setupTimes{gen: t1.Sub(t0), history: t2.Sub(t1), analyze: t3.Sub(t2)}, nil
}

// prepare has nothing to do: the set-up's CloudViews-off pass is every
// round's reference.
func (t *tpcdsRounds) prepare(int) error { return nil }

func (t *tpcdsRounds) period(p int) (*periodInput, error) {
	specs := t.specs()
	in := &periodInput{id: int64(p), serial: t.serial}
	for _, i := range t.order {
		in.jobs = append(in.jobs, specs[i])
		in.base = append(in.base, t.base[i])
	}
	return in, nil
}

func (t *tpcdsRounds) service(int, *core.Service) *core.Service {
	return core.NewService(t.cat, core.Config{Enabled: true, MaxViewsPerJob: 1, CacheBytes: t.cacheBytes})
}

func (t *tpcdsRounds) before(_ int, svc *core.Service, ops layerOps) {
	ops.load(svc, t.first.Annotations)
}

func (t *tpcdsRounds) after(int, *core.Service, layerOps) {}

func (t *tpcdsRounds) periodsPerSecond() float64 { return 1.6 }

func (t *tpcdsRounds) firstAnalysis() (*analyzer.Analysis, int) { return t.first, t.scanned }

func (t *tpcdsRounds) sizes() map[string]any {
	return map[string]any{
		"scale":          t.scale,
		"queries":        len(t.queries),
		"builders":       t.serial,
		"first_selected": len(t.first.Selected),
		"period":         "round",
	}
}

// rewritten reports whether the optimizer changed the plan: a plan that
// reads or writes a view.
func rewritten(root *plan.Node) bool {
	for _, n := range plan.Nodes(root) {
		if n.Kind == plan.OpViewScan || n.Kind == plan.OpMaterialize {
			return true
		}
	}
	return false
}

// resultRows sums the rows every vertex of a job produced.
func resultRows(res *exec.Result) int64 {
	var n int64
	for _, s := range res.NodeStats {
		n += s.Rows
	}
	return n
}
