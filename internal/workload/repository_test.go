package workload

import (
	"context"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

func setup(t *testing.T) (*exec.Executor, *plan.Node) {
	t.Helper()
	cat := catalog.New()
	sch := data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindFloat}}
	tab := data.NewTable("events", "g1", sch, 2)
	data.NewGenerator(1).Fill(tab, 100, 10)
	cat.Register(tab)
	e := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	p := plan.Scan("events", "g1", sch).
		Filter(expr.B(expr.OpGe, expr.C(0, "k"), expr.Lit(data.Int(2)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 1}}).
		Output("o")
	return e, p
}

func meta(job string, instance int64) JobMeta {
	return JobMeta{
		JobID: job, Cluster: "c1", BusinessUnit: "bu1", VC: "vc1",
		User: "u1", TemplateID: "tpl1", Instance: instance, Period: 1,
	}
}

func TestRecordReconcilesPlanWithStats(t *testing.T) {
	e, p := setup(t)
	res, err := e.RunCtx(context.Background(), p, "j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewRepository()
	rec := repo.Record(meta("j1", 0), p, res)

	if repo.NumJobs() != 1 {
		t.Fatalf("NumJobs = %d", repo.NumJobs())
	}
	obs := repo.Observations()
	if len(obs) != 5 { // scan, filter, exchange, agg, output
		t.Fatalf("observations = %d, want 5", len(obs))
	}
	if len(rec.Subgraphs) != 5 {
		t.Errorf("job record subgraphs = %d", len(rec.Subgraphs))
	}
	// Every observation carries real runtime stats and correct identity.
	comp := signature.NewComputer()
	bySig := map[string]Observation{}
	for _, o := range obs {
		if o.ExclusiveCost <= 0 {
			t.Errorf("observation %v has no cost", o.RootOp)
		}
		if o.Job.JobID != "j1" {
			t.Errorf("job meta lost: %+v", o.Job)
		}
		bySig[o.PreciseSig] = o
	}
	// The filter subgraph's observation matches its freshly computed sig
	// and its executed cardinality.
	filterNode := p.Children[0].Children[0].Children[0]
	if filterNode.Kind != plan.OpFilter {
		t.Fatalf("test walked to %v", filterNode.Kind)
	}
	sig := comp.Of(filterNode)
	o, ok := bySig[sig.Precise]
	if !ok {
		t.Fatal("filter observation missing")
	}
	if o.Rows != res.NodeStats[filterNode].Rows {
		t.Errorf("rows %d != executed %d", o.Rows, res.NodeStats[filterNode].Rows)
	}
	if o.RootOp != plan.OpFilter {
		t.Errorf("root op = %v", o.RootOp)
	}
	if len(o.Inputs) != 1 || o.Inputs[0] != "events" {
		t.Errorf("inputs = %v", o.Inputs)
	}
}

func TestWindowFilter(t *testing.T) {
	e, p := setup(t)
	repo := NewRepository()
	for i := int64(0); i < 3; i++ {
		res, err := e.RunCtx(context.Background(), p, "j", i, 0)
		if err != nil {
			t.Fatal(err)
		}
		repo.Record(meta("j", i), p, res)
	}
	if got := len(repo.Window(1, 2)); got != 10 {
		t.Errorf("window obs = %d, want 10", got)
	}
	if got := len(repo.Window(5, 9)); got != 0 {
		t.Errorf("empty window obs = %d", got)
	}
	if got := len(repo.Jobs()); got != 3 {
		t.Errorf("jobs = %d", got)
	}
}

func TestSameTemplateSharesNormalizedSigAcrossInstances(t *testing.T) {
	// Two instances of the same template over different GUIDs must yield
	// observations with equal normalized but distinct precise signatures.
	cat := catalog.New()
	sch := data.Schema{{Name: "k", Kind: data.KindInt}}
	tab := data.NewTable("t", "g1", sch, 1)
	data.NewGenerator(2).Fill(tab, 10, 5)
	cat.Register(tab)
	e := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	repo := NewRepository()

	mk := func(guid string) *plan.Node {
		return plan.Scan("t", guid, sch).
			Filter(expr.B(expr.OpGt, expr.C(0, "k"), expr.Lit(data.Int(1)))).
			Output("o")
	}
	p1 := mk("g1")
	res1, err := e.RunCtx(context.Background(), p1, "j1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo.Record(meta("j1", 0), p1, res1)

	if err := cat.Deliver("t", "g2", func(nt *data.Table) {
		data.NewGenerator(3).Fill(nt, 10, 5)
	}); err != nil {
		t.Fatal(err)
	}
	p2 := mk("g2")
	res2, err := e.RunCtx(context.Background(), p2, "j2", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo.Record(meta("j2", 1), p2, res2)

	obs := repo.Observations()
	byNorm := map[string][]Observation{}
	for _, o := range obs {
		byNorm[o.NormSig] = append(byNorm[o.NormSig], o)
	}
	// Each of the 3 subgraph shapes appears twice under one normalized sig.
	if len(byNorm) != 3 {
		t.Fatalf("distinct normalized sigs = %d, want 3", len(byNorm))
	}
	for sig, group := range byNorm {
		if len(group) != 2 {
			t.Errorf("norm sig %s has %d occurrences, want 2", sig, len(group))
		}
		if group[0].PreciseSig == group[1].PreciseSig {
			t.Errorf("instances share precise sig for %s", sig)
		}
	}
}

func TestInputPeriods(t *testing.T) {
	e, p := setup(t)
	repo := NewRepository()
	res, err := e.RunCtx(context.Background(), p, "daily", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	m1 := meta("daily", 0)
	repo.Record(m1, p, res)
	m2 := meta("weekly", 0)
	m2.Period = 7
	res2, err := e.RunCtx(context.Background(), p, "weekly", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo.Record(m2, p, res2)
	periods := repo.InputPeriods()
	if periods["events"] != 7 {
		t.Errorf("events period = %d, want 7 (longest consumer)", periods["events"])
	}
}
