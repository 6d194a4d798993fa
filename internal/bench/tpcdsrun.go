package bench

import (
	"fmt"
	"io"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/report"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workload"
)

// TPCDSQueryResult is one query's baseline-vs-CloudViews runtime (one bar
// of Figure 13).
type TPCDSQueryResult struct {
	ID         int
	Baseline   float64
	CloudViews float64
	UsedViews  int
	BuiltViews int
}

// ImprovementPct returns the percentage runtime improvement.
func (q TPCDSQueryResult) ImprovementPct() float64 {
	return (1 - q.CloudViews/q.Baseline) * 100
}

// TPCDSResult is the §7.2 experiment.
type TPCDSResult struct {
	Queries []TPCDSQueryResult
	// Paper aggregates: 79/99 improved, avg ≈12.5%, total ≈17%.
	Improved            int
	AvgImprovementPct   float64
	TotalImprovementPct float64
	PeakImprovementPct  float64
	PeakSlowdownPct     float64
	ViewsSelected       int
}

// The §7.2 data: all 99 queries over TPC-DS at scale 1.
const (
	tpcdsScale = 1.0
	tpcdsSeed  = 42
)

// tpcdsAnalysis is the §7.2 view selection. TPC-DS is not recurring, so
// candidate filters stay permissive; the conservative part is the
// paper's top-10 cut.
func tpcdsAnalysis() analyzer.Config {
	return analyzer.Config{MinFrequency: 3, MinCostRatio: 0.05, TopK: 10}
}

// tpcdsSpecs turns the queries into submissions of one tenant.
func tpcdsSpecs(queries []tpcds.Query) []core.JobSpec {
	out := make([]core.JobSpec, len(queries))
	for i, q := range queries {
		out[i] = core.JobSpec{Root: q.Root, Meta: workload.JobMeta{
			JobID: q.Name, Cluster: "tpcds", BusinessUnit: "tpcds",
			VC: "tpcds_vc", User: "bench", TemplateID: q.Name, Period: 1,
		}}
	}
	return out
}

// RunTPCDS executes the §7.2 experiment:
//
//  1. run all 99 queries without CloudViews (this pass doubles as the
//     analysis history, exactly as in the paper),
//  2. run the analyzer and select the top-K overlapping computations,
//  3. rerun the workload with CloudViews on, in the job-coordination
//     order: the analyzer's builder jobs first, then the rest (§6.5),
//  4. report per-query runtimes.
func RunTPCDS() (*TPCDSResult, error) {
	cat := tpcds.Generate(tpcdsScale, tpcdsSeed)
	queries := (&tpcds.Builder{Cat: cat}).Queries()
	all := tpcdsSpecs(queries)

	base := core.NewService(cat, core.Config{})
	baseRes, err := runAll(base, all)
	if err != nil {
		return nil, err
	}
	an, err := analyze(base.Repo, tpcdsAnalysis())
	if err != nil {
		return nil, err
	}
	order := buildersFirst(all, an.JobOrder)
	cvRes, err := runAll(reuseService(cat, an.Annotations, core.Config{MaxViewsPerJob: 1}), order)
	if err != nil {
		return nil, err
	}
	cv := map[string]*core.JobResult{}
	for i, s := range order {
		cv[s.Meta.JobID] = cvRes[i]
	}

	res := &TPCDSResult{ViewsSelected: len(an.Selected)}
	var sumBase, sumCV, sumImp float64
	for i, q := range queries {
		r := cv[q.Name]
		qr := TPCDSQueryResult{
			ID:         q.ID,
			Baseline:   baseRes[i].Result.Latency,
			CloudViews: r.Result.Latency,
			UsedViews:  len(r.Decision.ViewsUsed),
			BuiltViews: len(r.Decision.ViewsBuilt),
		}
		res.Queries = append(res.Queries, qr)
		imp := qr.ImprovementPct()
		if imp > 0 {
			res.Improved++
		}
		if imp > res.PeakImprovementPct {
			res.PeakImprovementPct = imp
		}
		if imp < res.PeakSlowdownPct {
			res.PeakSlowdownPct = imp
		}
		sumBase += qr.Baseline
		sumCV += qr.CloudViews
		sumImp += imp
	}
	res.AvgImprovementPct = sumImp / float64(len(res.Queries))
	res.TotalImprovementPct = (1 - sumCV/sumBase) * 100
	return res, nil
}

// WriteTPCDS renders the Figure 13 series and aggregates.
func WriteTPCDS(w io.Writer, r *TPCDSResult) {
	t := &report.Table{Header: []string{"query", "baseline", "cloudviews", "Δ%", "used", "built"}}
	for _, q := range r.Queries {
		t.Add(fmt.Sprintf("q%d", q.ID), q.Baseline, q.CloudViews, q.ImprovementPct(), q.UsedViews, q.BuiltViews)
	}
	t.Write(w)
	fmt.Fprintf(w, "\nFigure 13: %d of %d queries improved; avg %.1f%%, total %.1f%%; peak +%.1f%% / %.1f%%\n",
		r.Improved, len(r.Queries), r.AvgImprovementPct, r.TotalImprovementPct,
		r.PeakImprovementPct, r.PeakSlowdownPct)
	fmt.Fprintf(w, "views selected: %d\n", r.ViewsSelected)
}
