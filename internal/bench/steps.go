package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/catalog"
	"cloudviews/internal/core"
	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// The shared steps every experiment is built from: generate a workload,
// run one instance as history (RunWorkload), analyze it, deliver the next
// instance, and submit jobs one by one to a CloudViews-off baseline
// service and a CloudViews-on reuse service.

// RunWorkload executes one instance of every job of a generated cluster
// and returns the populated repository.
func RunWorkload(w *workgen.Workload, instance int64) (*workload.Repository, error) {
	ex := &exec.Executor{Catalog: w.Catalog, Store: storage.NewStore()}
	repo := workload.NewRepository()
	for _, j := range w.JobsForInstance(instance) {
		res, err := ex.RunCtx(context.Background(), j.Root, j.Meta.JobID, instance, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: job %s: %w", j.Meta.JobID, err)
		}
		repo.Record(j.Meta, j.Root, res)
	}
	return repo, nil
}

// recurring is a generated recurring workload after the shared setup of
// §7.1 and the ablations: instance 0 ran as the analysis history and
// instance 1 is delivered for the measured passes.
type recurring struct {
	cat  *catalog.Catalog
	hist *workload.Repository
	jobs []workgen.Job // instance 1
}

func newRecurring(p workgen.Profile) (*recurring, error) {
	w := workgen.Generate(p)
	hist, err := RunWorkload(w, 0)
	if err != nil {
		return nil, err
	}
	w.DeliverInstance(1)
	return &recurring{cat: w.Catalog, hist: hist, jobs: w.JobsForInstance(1)}, nil
}

// analyze selects views over a history. Every experiment measures reuse
// of the selected views, so an empty selection is an error.
func analyze(hist *workload.Repository, cfg analyzer.Config) (*analyzer.Analysis, error) {
	an := analyzer.New(hist).Analyze(cfg)
	if len(an.Selected) == 0 {
		return nil, errors.New("bench: analyzer selected no views; workload too sparse")
	}
	return an, nil
}

// reuseService returns a CloudViews-on service over cat with anns loaded.
func reuseService(cat *catalog.Catalog, anns []metadata.Annotation, cfg core.Config) *core.Service {
	cfg.Enabled = true
	svc := core.NewService(cat, cfg)
	svc.Meta.LoadAnalysis(anns)
	return svc
}

// runAll submits specs to svc one at a time, in order. Serial submission
// fixes which job builds each view, so simulated figures do not depend on
// GOMAXPROCS.
func runAll(svc *core.Service, specs []core.JobSpec) ([]*core.JobResult, error) {
	out := make([]*core.JobResult, len(specs))
	for i, s := range specs {
		r, err := svc.Run(context.Background(), s)
		if err != nil {
			return nil, fmt.Errorf("bench: job %s: %w", s.Meta.JobID, err)
		}
		out[i] = r
	}
	return out, nil
}

// baseline runs specs with CloudViews off.
func baseline(cat *catalog.Catalog, specs []core.JobSpec) ([]*core.JobResult, error) {
	return runAll(core.NewService(cat, core.Config{}), specs)
}

// totalCPU sums the simulated CPU of rs, in order.
func totalCPU(rs []*core.JobResult) float64 {
	var sum float64
	for _, r := range rs {
		sum += r.Result.TotalCPU
	}
	return sum
}

// specs converts generated jobs to submissions.
func specs(jobs []workgen.Job) []core.JobSpec {
	out := make([]core.JobSpec, len(jobs))
	for i, j := range jobs {
		out[i] = core.JobSpec{Meta: j.Meta, Root: j.Root}
	}
	return out
}

// containing returns, in order, up to n jobs not in skip whose plan
// contains the computation with normalized signature normSig.
func containing(jobs []workgen.Job, normSig string, n int, skip map[string]bool) []workgen.Job {
	comp := signature.NewComputer()
	var out []workgen.Job
	for _, j := range jobs {
		if skip[j.Meta.JobID] {
			continue
		}
		for _, s := range comp.AllSubgraphs(j.Root) {
			if s.Sig.Normalized == normSig {
				out = append(out, j)
				break
			}
		}
		if len(out) == n {
			break
		}
	}
	return out
}

// buildersFirst returns specs in the §6.5 coordinated submission order:
// jobs of the templates the analyzer's hints name come first, in hint
// order, and the rest keep their order. Hints are history job IDs, which
// for recurring jobs carry an "-<instance>" suffix after the template.
func buildersFirst(specs []core.JobSpec, hints []string) []core.JobSpec {
	rank := map[string]int{}
	for i, h := range hints {
		if k := strings.LastIndexByte(h, '-'); k >= 0 {
			h = h[:k]
		}
		rank[h] = i + 1
	}
	key := func(s core.JobSpec) int {
		if r, ok := rank[s.Meta.TemplateID]; ok {
			return r
		}
		return len(hints) + 1
	}
	out := append([]core.JobSpec(nil), specs...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}
