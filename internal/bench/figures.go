// Package bench contains the experiment harnesses that regenerate every
// table and figure of the paper's evaluation (§2 workload analysis and §7
// performance evaluation). Each harness returns a structured result and
// has a Write* renderer; cmd/cloudviews runs them as its subcommands.
package bench

import (
	"fmt"
	"io"
	"sort"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/plan"
	"cloudviews/internal/report"
	"cloudviews/internal/workgen"
)

// ClusterProfiles returns the five cluster configurations behind Figure 1.
// They differ in how much script cloning and input sharing each cluster's
// tenants exhibit; cluster3 is the low-overlap outlier of the figure.
func ClusterProfiles() []workgen.Profile {
	mk := func(name string, seed int64, clone, uniq float64, templates int) workgen.Profile {
		p := workgen.DefaultProfile(name, seed)
		p.CloneRate = clone
		p.UniqueInputRate = uniq
		p.Templates = templates
		return p
	}
	return []workgen.Profile{
		mk("cluster1", 101, 0.55, 0.55, 140),
		mk("cluster2", 102, 0.65, 0.45, 160),
		mk("cluster3", 103, 0.10, 0.97, 120), // the low-overlap cluster
		mk("cluster4", 104, 0.60, 0.50, 150),
		mk("cluster5", 105, 0.70, 0.40, 140),
	}
}

// ClusterOverlap is one cluster's Figure 1 bar triple.
type ClusterOverlap struct {
	Cluster string
	Stats   *analyzer.OverlapStats
}

// Figure1 measures the per-cluster overlap triple over the five profiles.
func Figure1() ([]ClusterOverlap, error) {
	var out []ClusterOverlap
	for _, p := range ClusterProfiles() {
		w := workgen.Generate(p)
		repo, err := RunWorkload(w, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, ClusterOverlap{
			Cluster: p.Name,
			Stats:   analyzer.ComputeOverlapStats(repo.Observations()),
		})
	}
	return out, nil
}

// WriteFigure1 renders the Figure 1 table.
func WriteFigure1(w io.Writer, rows []ClusterOverlap) {
	t := &report.Table{Header: []string{"cluster", "%overlapping jobs", "%users w/ overlap", "%overlapping subgraphs"}}
	for _, r := range rows {
		t.Add(r.Cluster, r.Stats.PctJobsOverlapping, r.Stats.PctUsersOverlapping, r.Stats.PctSubgraphsOverlapping)
	}
	t.Write(w)
}

// Figure2Result carries the per-VC series of Figures 2(a) and 2(b) for the
// largest cluster.
type Figure2Result struct {
	Stats *analyzer.OverlapStats
	// Sorted series, one entry per VC.
	PctJobsOverlapping []float64
	AvgFrequency       []float64
}

// Figure2 analyzes the largest cluster profile VC by VC.
func Figure2() (*Figure2Result, error) {
	p := largestCluster()
	w := workgen.Generate(p)
	repo, err := RunWorkload(w, 0)
	if err != nil {
		return nil, err
	}
	st := analyzer.ComputeOverlapStats(repo.Observations())
	res := &Figure2Result{Stats: st}
	for _, vc := range st.VCNames {
		res.PctJobsOverlapping = append(res.PctJobsOverlapping, st.VCJobOverlapPct[vc])
		if f, ok := st.VCAvgFrequency[vc]; ok {
			res.AvgFrequency = append(res.AvgFrequency, f)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(res.PctJobsOverlapping)))
	sort.Sort(sort.Reverse(sort.Float64Slice(res.AvgFrequency)))
	return res, nil
}

// largestCluster is the profile used by the "largest cluster / largest
// business unit" analyses (Figures 2–5): more VCs, more templates.
func largestCluster() workgen.Profile {
	p := workgen.DefaultProfile("largest", 999)
	p.BusinessUnits = 6
	p.VCsPerBU = 6
	p.Templates = 300
	p.Users = 60
	p.CloneRate = 0.6
	p.UniqueInputRate = 0.5
	// Deep pipelines: production jobs are large DAGs, so a typical shared
	// prefix is a small fraction of its job's cost (Figure 5d's skew).
	p.MaxExtraSteps = 7
	return p
}

// WriteFigure2 renders the Figure 2 summary (series percentiles).
func WriteFigure2(w io.Writer, r *Figure2Result) {
	fmt.Fprintf(w, "VCs analyzed: %d\n", len(r.PctJobsOverlapping))
	over50 := report.FractionAtLeast(r.PctJobsOverlapping, 50) * 100
	zero := 0
	full := 0
	for _, p := range r.PctJobsOverlapping {
		if p == 0 {
			zero++
		}
		if p == 100 {
			full++
		}
	}
	fmt.Fprintf(w, "Figure 2a: %.0f%% of VCs have >50%% of jobs overlapping; %d VCs at 0%%, %d VCs at 100%%\n",
		over50, zero, full)
	fmt.Fprintf(w, "Figure 2b: avg overlap frequency median=%.2f p75=%.2f p95=%.2f max=%.2f\n",
		report.Median(r.AvgFrequency), report.Percentile(r.AvgFrequency, 75),
		report.Percentile(r.AvgFrequency, 95), report.Percentile(r.AvgFrequency, 100))
}

// Figure3Result carries the business-unit overlap CDF series of
// Figure 3: overlaps per job, input, user, and VC.
type Figure3Result struct {
	Stats *analyzer.OverlapStats
}

// Figure3 analyzes the largest business unit of the largest cluster.
func Figure3() (*Figure3Result, error) {
	p := largestCluster()
	w := workgen.Generate(p)
	repo, err := RunWorkload(w, 0)
	if err != nil {
		return nil, err
	}
	// Largest business unit by observation count.
	counts := map[string]int{}
	for _, o := range repo.Observations() {
		counts[o.Job.BusinessUnit]++
	}
	bu, best := "", 0
	for b, c := range counts {
		if c > best {
			bu, best = b, c
		}
	}
	an := analyzer.New(repo)
	st := an.OverlapStats(analyzer.Config{BusinessUnits: []string{bu}})
	return &Figure3Result{Stats: st}, nil
}

// WriteFigure3 renders the four CDF summaries of Figure 3.
func WriteFigure3(w io.Writer, r *Figure3Result) {
	series := []struct {
		name string
		xs   []float64
	}{
		{"overlaps per job", r.Stats.OverlapsPerJob},
		{"overlaps per input", r.Stats.OverlapsPerInput},
		{"overlaps per user", r.Stats.OverlapsPerUser},
		{"overlaps per VC", r.Stats.OverlapsPerVC},
	}
	t := &report.Table{Header: []string{"entity", "n", "median", "p75", "p95", "max"}}
	for _, s := range series {
		t.Add(s.name, len(s.xs), report.Median(s.xs), report.Percentile(s.xs, 75),
			report.Percentile(s.xs, 95), report.Percentile(s.xs, 100))
	}
	t.Write(w)
}

// Figure4Result is the operator-wise overlap analysis.
type Figure4Result struct {
	Stats *analyzer.OverlapStats
	// Breakdown is OperatorPct sorted descending.
	Breakdown []OpShare
}

// OpShare is one bar of Figure 4(a).
type OpShare struct {
	Op  plan.OpKind
	Pct float64
}

// Figure4 computes the operator breakdown and per-operator frequency CDFs.
func Figure4() (*Figure4Result, error) {
	f3, err := Figure3()
	if err != nil {
		return nil, err
	}
	st := f3.Stats
	res := &Figure4Result{Stats: st}
	for op, pct := range st.OperatorPct {
		res.Breakdown = append(res.Breakdown, OpShare{Op: op, Pct: pct})
	}
	sort.Slice(res.Breakdown, func(i, j int) bool {
		if res.Breakdown[i].Pct != res.Breakdown[j].Pct {
			return res.Breakdown[i].Pct > res.Breakdown[j].Pct
		}
		return res.Breakdown[i].Op < res.Breakdown[j].Op
	})
	return res, nil
}

// WriteFigure4 renders Figure 4(a) plus the 4(b)–(d) frequency summaries.
func WriteFigure4(w io.Writer, r *Figure4Result) {
	t := &report.Table{Header: []string{"operator", "% of overlapping subgraphs"}}
	for _, b := range r.Breakdown {
		t.Add(b.Op.String(), b.Pct)
	}
	t.Write(w)
	for _, op := range []plan.OpKind{plan.OpExchange, plan.OpFilter, plan.OpProcess} {
		fs := r.Stats.OperatorFrequencies[op]
		if len(fs) == 0 {
			fmt.Fprintf(w, "%s: no overlapping subgraphs\n", op)
			continue
		}
		fmt.Fprintf(w, "%s frequency: n=%d median=%.1f p90=%.1f max=%.0f\n",
			op, len(fs), report.Median(fs), report.Percentile(fs, 90), report.Percentile(fs, 100))
	}
}

// Figure5Result carries the impact distributions of Figure 5.
type Figure5Result struct {
	Stats *analyzer.OverlapStats
}

// Figure5 measures frequency/runtime/size/cost-ratio distributions over
// the largest business unit.
func Figure5() (*Figure5Result, error) {
	f3, err := Figure3()
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Stats: f3.Stats}, nil
}

// WriteFigure5 renders the Figure 5 summaries, echoing the paper's
// headline statistics (average frequency, share of sub-second overlaps,
// share of tiny views, cost-ratio skew).
func WriteFigure5(w io.Writer, r *Figure5Result) {
	st := r.Stats
	fmt.Fprintf(w, "overlapping computations: %d\n", len(st.Frequencies))
	fmt.Fprintf(w, "frequency: avg=%.2f median=%.0f p75=%.0f p95=%.0f p99=%.0f\n",
		st.AvgFrequency, report.Median(st.Frequencies), report.Percentile(st.Frequencies, 75),
		report.Percentile(st.Frequencies, 95), report.Percentile(st.Frequencies, 99))
	fmt.Fprintf(w, "runtime: %.0f%% of overlaps run below the cheap-view threshold; p99=%.1f cost-s\n",
		report.FractionAtMost(st.Runtimes, cheapRuntimeThreshold)*100,
		report.Percentile(st.Runtimes, 99))
	fmt.Fprintf(w, "size: %.0f%% of overlaps below %d bytes; p99=%.0f bytes\n",
		report.FractionAtMost(st.SizesBytes, smallViewBytes)*100, int(smallViewBytes),
		report.Percentile(st.SizesBytes, 99))
	fmt.Fprintf(w, "view/query cost ratio: %.0f%% <= 0.01, %.0f%% > 0.1, %.0f%% > 0.5\n",
		report.FractionAtMost(st.CostRatios, 0.01)*100,
		report.FractionAtLeast(st.CostRatios, 0.1)*100,
		report.FractionAtLeast(st.CostRatios, 0.5)*100)
}

// Thresholds for the Figure 5 headline fractions, in simulator units
// (paper: 1 s runtime, 0.1 MB size).
const (
	cheapRuntimeThreshold = 150.0
	smallViewBytes        = 4096.0
)
