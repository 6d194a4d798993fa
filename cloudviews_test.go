package cloudviews

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// The façade tests exercise the library exactly as a downstream user
// would: build a catalog, author jobs (builder API and script), run the
// service, analyze, reuse, and persist — all through package cloudviews.

func facadeCatalog(t testing.TB) *Catalog {
	t.Helper()
	cat := NewCatalog()
	tab := NewTable("purchases", "v1", Schema{
		{Name: "customer", Kind: KindInt},
		{Name: "sku", Kind: KindString},
		{Name: "day", Kind: KindDate},
		{Name: "amount", Kind: KindFloat},
	}, 4)
	rr := 0
	for i := 0; i < 800; i++ {
		tab.AppendHash(Row{
			Int(int64(i % 60)),
			Str(fmt.Sprintf("sku%d", i%25)),
			Date(18000),
			Float(float64(i%300) + 0.5),
		}, []int{0}, &rr)
	}
	cat.Register(tab)
	return cat
}

func facadeMeta(id string) JobMeta {
	return JobMeta{JobID: id, VC: "api_vc", User: "tester", TemplateID: id, Period: 1}
}

func TestPublicAPIEndToEnd(t *testing.T) {
	cat := facadeCatalog(t)
	svc := NewService(cat, Config{Enabled: true, ValidateResults: true})

	shared := func() *Plan {
		return Scan("purchases", "v1", mustSchema(cat, t)).
			Filter(Eq(Col(2, "day"), Param("day", Date(18000)))).
			ShuffleHash([]int{0}, 4).
			HashAgg([]int{0}, []AggSpec{{Fn: AggSum, Col: 3}})
	}
	run := func(id string, root *Plan) (*JobResult, error) {
		return svc.Run(context.Background(), JobSpec{Meta: facadeMeta(id), Root: root})
	}
	r1, err := run("spend-report", shared().Sort([]int{1}, []bool{true}).Output("spend"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run("big-spenders",
		shared().Filter(Bin(OpGt, Col(1, "sum_amount"), Lit(Float(900)))).Output("big")); err != nil {
		t.Fatal(err)
	}
	an := svc.RunAnalyzer(AnalyzerConfig{MinFrequency: 2, TopK: 1})
	if len(an.Selected) != 1 {
		t.Fatalf("selected %d", len(an.Selected))
	}
	// Signature helpers work on public plans.
	sig := SignatureOf(shared())
	if sig.Normalized != an.Selected[0].NormSig {
		t.Error("public SignatureOf disagrees with analyzer selection")
	}

	r3, err := run("spend-report-2", shared().Sort([]int{1}, []bool{true}).Output("spend"))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := run("big-spenders-2",
		shared().Filter(Bin(OpGt, Col(1, "sum_amount"), Lit(Float(900)))).Output("big"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r3.Decision.ViewsBuilt) != 1 || len(r4.Decision.ViewsUsed) != 1 {
		t.Errorf("build/reuse decisions: %d/%d", len(r3.Decision.ViewsBuilt), len(r4.Decision.ViewsUsed))
	}
	if r4.Result.TotalCPU >= r4.BaselineResult.TotalCPU {
		t.Error("reuse did not help")
	}
	_ = r1

	// Overlap statistics through the public API.
	st := ComputeOverlapStats(svc.Repo.Observations())
	if st.TotalJobs != 4 || st.PctJobsOverlapping <= 0 {
		t.Errorf("stats: %+v", st)
	}

	// Repository persistence round trip.
	var buf bytes.Buffer
	if err := svc.Repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumJobs() != 4 {
		t.Errorf("loaded jobs = %d", loaded.NumJobs())
	}
}

func TestPublicAPIScripts(t *testing.T) {
	cat := facadeCatalog(t)
	src := `
rows = EXTRACT FROM purchases;
f = FILTER rows WHERE day == @day AND amount > 10.0;
s = SHUFFLE f BY customer INTO 4;
a = AGGREGATE s BY customer SUM(amount), COUNT(sku);
OUTPUT a TO spend;
`
	compiled, err := CompileScript(src, cat, ScriptParams{"day": Date(18000)})
	if err != nil {
		t.Fatal(err)
	}
	root, err := compiled.Root()
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(cat, Config{Enabled: true})
	r, err := svc.Run(context.Background(), JobSpec{Meta: facadeMeta("scripted"), Root: root})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Result.Outputs["spend"]) == 0 {
		t.Error("script produced no rows")
	}
}

func TestPublicAPIWorkloadGenerators(t *testing.T) {
	p := DefaultWorkloadProfile("facade", 3)
	p.Templates = 20
	w := GenerateWorkload(p)
	if len(w.JobsForInstance(0)) < 20 {
		t.Error("generator underproduced")
	}
	tp := GenerateTPCDS(0.5, 1)
	b := &TPCDSBuilder{Cat: tp}
	q := b.Query(3)
	svc := NewService(tp, Config{})
	if _, err := svc.Run(context.Background(), JobSpec{Meta: facadeMeta(q.Name), Root: q.Root}); err != nil {
		t.Fatal(err)
	}
}

func mustSchema(cat *Catalog, t testing.TB) Schema {
	t.Helper()
	tab, err := cat.Get("purchases")
	if err != nil {
		t.Fatal(err)
	}
	return tab.Schema
}
