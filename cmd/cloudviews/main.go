// Command cloudviews is the single driver of this repository.
//
// With no subcommand it is the admin interface of paper §5.5: it runs the
// CloudViews analyzer over a cluster's workload with custom constraints,
// prints the overlap summary, drills into the most overlapping
// computations (the Power BI dashboard stand-in), and emits the selected
// annotations and job-coordination hints. The workload is a generated
// cluster (this repository's substitute for a SCOPE workload repository);
// all analyzer knobs are exposed:
//
//	cloudviews -templates 200 -topk 10 -minfreq 3 -ratio 0.2
//	cloudviews -vc bu0_vc1 -strategy pack -budget 1000000
//	cloudviews -drilldown 20
//
// With a subcommand it regenerates one part of the paper's evaluation at
// the committed paper configuration:
//
//	cloudviews overlap    # Figures 1–5: workload overlap (§2)
//	cloudviews prod       # Figures 11–12: production reuse (§7.1)
//	cloudviews tpcds      # Figure 13: TPC-DS reuse (§7.2)
//	cloudviews overheads  # §7.3 analyzer, lookup and optimizer overheads
//	cloudviews ablations  # the design-choice ablations of DESIGN.md
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/bench"
	"cloudviews/internal/report"
	"cloudviews/internal/workgen"
	"cloudviews/internal/workload"
)

// experiments maps each subcommand to the run that prints it.
var experiments = map[string]func(io.Writer) error{
	"overlap":   overlap,
	"prod":      render(bench.RunProduction, bench.WriteProd),
	"tpcds":     render(bench.RunTPCDS, bench.WriteTPCDS),
	"overheads": render(bench.RunOverheads, bench.WriteOverheads),
	"ablations": render(bench.RunAblations, bench.WriteAblations),
}

// render pairs an experiment with its renderer.
func render[T any](run func() (T, error), write func(io.Writer, T)) func(io.Writer) error {
	return func(w io.Writer) error {
		r, err := run()
		if err != nil {
			return err
		}
		write(w, r)
		return nil
	}
}

// overlap prints Figures 1–5, each under a header.
func overlap(w io.Writer) error {
	figures := []func(io.Writer) error{
		render(bench.Figure1, bench.WriteFigure1),
		render(bench.Figure2, bench.WriteFigure2),
		render(bench.Figure3, bench.WriteFigure3),
		render(bench.Figure4, bench.WriteFigure4),
		render(bench.Figure5, bench.WriteFigure5),
	}
	for i, fig := range figures {
		fmt.Fprintf(w, "==== Figure %d ====\n", i+1)
		if err := fig(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cloudviews: ")
	if len(os.Args) > 1 {
		if run, ok := experiments[os.Args[1]]; ok {
			if len(os.Args) > 2 {
				log.Fatalf("%s takes no arguments", os.Args[1])
			}
			if err := run(os.Stdout); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	admin()
}

// admin is the §5.5 admin flow.
func admin() {
	seed := flag.Int64("seed", 1, "workload seed")
	templates := flag.Int("templates", 150, "recurring templates in the cluster")
	loadPath := flag.String("load", "", "load a saved workload repository instead of generating one")
	savePath := flag.String("save", "", "save the analyzed workload repository to this file")
	vcs := flag.String("vc", "", "comma-separated VC filter (empty = all)")
	bus := flag.String("bu", "", "comma-separated business-unit filter")
	windowFrom := flag.Int64("from", 0, "analysis window start (instance)")
	windowTo := flag.Int64("to", 0, "analysis window end (0 = open)")
	minFreq := flag.Int("minfreq", 2, "minimum overlap frequency")
	ratio := flag.Float64("ratio", 0, "minimum view-to-job cost ratio")
	minRuntime := flag.Float64("minruntime", 0, "minimum subgraph runtime (cost-s)")
	topK := flag.Int("topk", 10, "views to select (0 = unlimited)")
	maxPerJob := flag.Int("maxperjob", 0, "1 = at most one view per job")
	strategy := flag.String("strategy", "utility", "selection strategy: utility | density | pack | packopt")
	budget := flag.Int64("budget", 0, "storage budget in bytes (pack strategy)")
	drill := flag.Int("drilldown", 10, "top-N computations to drill into")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: cloudviews [flags]\n       cloudviews overlap|prod|tpcds|overheads|ablations\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		log.Fatalf("unknown subcommand %q", flag.Arg(0))
	}

	var repo *workload.Repository
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			log.Fatal(err)
		}
		repo, err = workload.Load(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded workload repository %s: %d jobs\n\n", *loadPath, repo.NumJobs())
	} else {
		p := workgen.DefaultProfile("admincluster", *seed)
		p.Templates = *templates
		w := workgen.Generate(p)
		var err error
		repo, err = bench.RunWorkload(w, 0)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := repo.Save(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved workload repository to %s\n\n", *savePath)
	}

	cfg := analyzer.Config{
		WindowFrom:   *windowFrom,
		WindowTo:     *windowTo,
		MinFrequency: *minFreq,
		MinCostRatio: *ratio,
		MinRuntime:   *minRuntime,
		MaxPerJob:    *maxPerJob,
		TopK:         *topK,
	}
	if *vcs != "" {
		cfg.VCs = strings.Split(*vcs, ",")
	}
	if *bus != "" {
		cfg.BusinessUnits = strings.Split(*bus, ",")
	}
	switch *strategy {
	case "utility":
		cfg.Strategy = analyzer.TopKUtility
	case "density":
		cfg.Strategy = analyzer.TopKUtilityPerByte
	case "pack":
		cfg.Strategy = analyzer.PackStorageBudget
		cfg.StorageBudget = *budget
	case "packopt":
		cfg.Strategy = analyzer.PackStorageBudgetOptimal
		cfg.StorageBudget = *budget
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	a := analyzer.New(repo)
	an := a.Analyze(cfg)
	st := a.OverlapStats(cfg)

	fmt.Printf("== Overlap summary (%d jobs, %d subgraph occurrences) ==\n", st.TotalJobs, st.TotalOccurrences)
	fmt.Printf("jobs overlapping:      %.1f%%\n", st.PctJobsOverlapping)
	fmt.Printf("users with overlap:    %.1f%%\n", st.PctUsersOverlapping)
	fmt.Printf("subgraphs overlapping: %.1f%% (avg frequency %.2f)\n\n",
		st.PctSubgraphsOverlapping, st.AvgFrequency)

	fmt.Printf("== Top-%d overlapping computations ==\n", *drill)
	t := &report.Table{Header: []string{"#", "root", "freq", "jobs", "users",
		"avg cost", "avg bytes", "cost ratio", "net utility", "expiry", "multi-design"}}
	for i, c := range an.Candidates {
		if i >= *drill {
			break
		}
		t.Add(i+1, c.RootOp.String(), c.Frequency, c.JobCount, c.UserCount,
			c.AvgCost, c.AvgBytes, c.CostRatio, c.Utility, c.ExpiryDelta, c.MultiDesign)
	}
	t.Write(os.Stdout)

	fmt.Printf("\n== Selected views (%d) ==\n", len(an.Selected))
	ts := &report.Table{Header: []string{"#", "signature", "root", "freq", "utility", "partitioning", "tags"}}
	for i, c := range an.Selected {
		tags := strings.Join(c.Tags, ",")
		if len(tags) > 48 {
			tags = tags[:45] + "..."
		}
		ts.Add(i+1, c.NormSig[:16], c.RootOp.String(), c.Frequency, c.Utility,
			fmt.Sprintf("%s%v x%d", c.Props.Part.Kind, c.Props.Part.Cols, c.Props.Part.Count), tags)
	}
	ts.Write(os.Stdout)

	if len(an.JobOrder) > 0 {
		fmt.Printf("\n== Job coordination hints (submit first, in order) ==\n")
		for i, j := range an.JobOrder {
			fmt.Printf("%2d. %s\n", i+1, j)
		}
	}
}
