package exec

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// TestExecutionDeterminismProperty asserts the executor is fully
// deterministic: the same plan over the same data yields byte-identical
// ordered outputs every run — including through Sort/Top tie-breaks and
// the (map-backed) hash aggregate. Reuse validation depends on this.
func TestExecutionDeterminismProperty(t *testing.T) {
	e := env(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		root := randomPipeline(r).Sort([]int{0}, nil).Top(7).Output("o")
		r1, err := e.RunCtx(context.Background(), root, "a", 0, 0)
		if err != nil {
			return false
		}
		r2, err := e.RunCtx(context.Background(), plan.Clone(root), "b", 0, 0)
		if err != nil {
			return false
		}
		a, b := r1.Outputs["o"], r2.Outputs["o"]
		if len(a) != len(b) {
			return false
		}
		// Ordered, exact comparison — multiset equality is not enough here.
		for i := range a {
			if data.CompareRows(a[i], b[i], allCols(a[i]), nil) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestTopThroughViewMatchesRecompute pins the subtle tie-break case: a
// Top over a Sort selects identical rows whether the input subtree is
// recomputed or read from a materialized view with a different physical
// layout.
func TestTopThroughViewMatchesRecompute(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		HashAgg([]int{1}, []plan.AggSpec{{Fn: plan.AggCount, Col: 0}}) // many count ties
	sig := signature.Of(base)

	top := func(in *plan.Node) *plan.Node {
		// Sort on the tie-heavy count column, keep 3.
		return in.Sort([]int{1}, []bool{true}).Top(3).Output("o")
	}
	direct, err := e.RunCtx(context.Background(), top(base), "direct", 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Materialize with a hostile physical design: single partition sorted
	// by the opposite column.
	props := plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartSingleton, Count: 1},
		Sort: plan.SortOrder{Cols: []int{0}, Desc: []bool{true}},
	}
	path := storage.PathFor(sig.Precise, "builder")
	mat := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("x")
	if _, err := e.RunCtx(context.Background(), mat, "builder", 0, 0); err != nil {
		t.Fatal(err)
	}
	vs := plan.ViewScan(path, base.Schema(), sig.Precise, sig.Normalized)
	viaView, err := e.RunCtx(context.Background(), top(vs), "viaview", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := direct.Outputs["o"], viaView.Outputs["o"]
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("top sizes %d/%d", len(a), len(b))
	}
	for i := range a {
		if data.CompareRows(a[i], b[i], allCols(a[i]), nil) != 0 {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func allCols(r data.Row) []int {
	out := make([]int, len(r))
	for i := range out {
		out[i] = i
	}
	return out
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	e := env(t)
	h := plan.Scan("sales", "sales-v1", salesSchema()).
		HashJoin(plan.Scan("items", "items-v1", itemSchema()), []int{0}, []int{0}).
		Output("o")
	m := plan.Scan("sales", "sales-v1", salesSchema()).
		MergeJoin(plan.Scan("items", "items-v1", itemSchema()), []int{0}, []int{0}).
		Output("o")
	rh, err := e.RunCtx(context.Background(), h, "h", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := e.RunCtx(context.Background(), m, "m", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !data.RowsEqual(rh.Outputs["o"], rm.Outputs["o"]) {
		t.Error("merge join and hash join disagree")
	}
}

func TestRangePartitionExchange(t *testing.T) {
	e := env(t)
	p := plan.Scan("sales", "sales-v1", salesSchema()).
		RangePartition([]int{3}, 4). // range on price
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs["o"]) != 200 {
		t.Fatalf("range exchange lost rows: %d", len(res.Outputs["o"]))
	}
	ex := p.Children[0]
	if res.NodeStats[ex].DOP != 4 {
		t.Errorf("DOP = %d", res.NodeStats[ex].DOP)
	}
	// A range exchange costs more than a hash exchange (it sorts).
	h := plan.Scan("sales", "sales-v1", salesSchema()).ShuffleHash([]int{3}, 4).Output("o")
	rh, err := e.RunCtx(context.Background(), h, "j2", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeStats[ex].ExclusiveCost <= rh.NodeStats[h.Children[0]].ExclusiveCost {
		t.Error("range exchange should cost more than hash exchange")
	}
	// Derived properties: partitioned AND sorted.
	props := plan.DeriveProps(ex)
	if props.Part.Kind != plan.PartRange || len(props.Sort.Cols) != 1 || props.Sort.Cols[0] != 3 {
		t.Errorf("derived props = %+v", props)
	}
	// Verify global ordering across partitions: re-running and walking
	// output in partition order yields ascending price.
	outRows := res.Outputs["o"]
	for i := 1; i < len(outRows); i++ {
		if outRows[i-1][3].AsFloat() > outRows[i][3].AsFloat() {
			t.Fatal("range partitions not globally ordered")
		}
	}
}

func TestRangeDesignedView(t *testing.T) {
	e := env(t)
	base := plan.Scan("sales", "sales-v1", salesSchema()).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}})
	sig := signature.Of(base)
	props := plan.PhysicalProps{
		Part: plan.Partitioning{Kind: plan.PartRange, Cols: []int{0}, Count: 3},
	}
	path := storage.PathFor(sig.Precise, "b")
	mat := base.Materialize(path, sig.Precise, sig.Normalized, props).Output("x")
	if _, err := e.RunCtx(context.Background(), mat, "b", 0, 0); err != nil {
		t.Fatal(err)
	}
	v, parts, err := e.Store.ConsumeCtx(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if v.PartitionCount() != 3 || len(parts) != 3 {
		t.Fatalf("partitions = %d", len(parts))
	}
	// Ranges are disjoint and ascending across partitions.
	var last data.Value
	started := false
	for _, part := range parts {
		for _, r := range part {
			if started && data.Compare(last, r[0]) > 0 {
				t.Fatal("range view not globally ordered")
			}
			last = r[0]
			started = true
		}
	}
}

// TestSkewStressParallelMatchesSerial hammers the parallel data plane with
// a pathologically skewed input: one hot join/group key concentrates ~90%
// of 6400 rows in a single partition of 64, so one worker drags while the
// rest finish instantly — the scheduling pattern most likely to expose an
// order-dependent merge. Twenty parallel executions of a
// filter→join→shuffle→agg→materialize→sort pipeline must each be
// byte-identical to the serial reference walk (Executor.Serial): ordered outputs,
// exact TotalCPU/Latency floats, per-node Stats, and MaterializedPaths.
func TestSkewStressParallelMatchesSerial(t *testing.T) {
	const parts = 64
	sch := data.Schema{
		{Name: "k", Kind: data.KindInt},
		{Name: "g", Kind: data.KindInt},
		{Name: "v", Kind: data.KindFloat},
	}
	dimSch := data.Schema{{Name: "id", Kind: data.KindInt}, {Name: "w", Kind: data.KindInt}}
	cat := catalog.New()
	fact := data.NewTable("skewfact", "sf-v1", sch, parts)
	rr := 0
	for i := 0; i < 6400; i++ {
		k := int64(7) // hot key: ~90% of rows land in one partition
		if i%10 == 0 {
			k = int64(i)
		}
		fact.AppendHash(data.Row{
			data.Int(k),
			data.Int(int64(i % 5)),
			data.Float(float64(i%97) + 0.5),
		}, []int{0}, &rr)
	}
	hot, total := 0, 0
	for _, p := range fact.Partitions {
		total += len(p)
		if len(p) > hot {
			hot = len(p)
		}
	}
	if hot < total/2 {
		t.Fatalf("fixture not skewed: hottest partition %d of %d rows", hot, total)
	}
	dim := data.NewTable("skewdim", "sd-v1", dimSch, 8)
	for i := 0; i < 100; i++ {
		dim.AppendHash(data.Row{data.Int(int64(i)), data.Int(int64(i % 3))}, []int{0}, &rr)
	}
	cat.Register(fact)
	cat.Register(dim)

	base := plan.Scan("skewfact", "sf-v1", sch).
		Filter(expr.B(expr.OpGe, expr.C(2, "v"), expr.Lit(data.Float(0)))).
		HashJoin(plan.Scan("skewdim", "sd-v1", dimSch), []int{0}, []int{0}).
		ShuffleHash([]int{1}, 16).
		HashAgg([]int{1}, []plan.AggSpec{
			{Fn: plan.AggSum, Col: 2},
			{Fn: plan.AggCount, Col: 0},
		})
	sig := signature.Of(base)
	path := storage.PathFor(sig.Precise, "skew")
	build := func() *plan.Node {
		return plan.Clone(base.Materialize(path, sig.Precise, sig.Normalized, plan.PhysicalProps{
			Part: plan.Partitioning{Kind: plan.PartHash, Cols: []int{0}, Count: 8},
		}).Sort([]int{0}, nil).Output("o"))
	}

	// Fresh store per run so every execution materializes (and therefore
	// reports) the same path, rather than deduplicating against the
	// previous run's view.
	serRoot := build()
	serial := serialRun(t, &Executor{Catalog: cat, Store: storage.NewStore()}, serRoot, "skew")
	if len(serial.MaterializedPaths) != 1 || serial.MaterializedPaths[0] != path {
		t.Fatalf("serial MaterializedPaths = %v", serial.MaterializedPaths)
	}
	for run := 0; run < 20; run++ {
		root := build()
		par, err := (&Executor{Catalog: cat, Store: storage.NewStore()}).RunCtx(context.Background(), root, "skew", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		diffResults(t, fmt.Sprintf("skew run %d", run), root, serRoot, par, serial)
		if len(par.MaterializedPaths) != len(serial.MaterializedPaths) {
			t.Fatalf("run %d: MaterializedPaths %v vs %v", run, par.MaterializedPaths, serial.MaterializedPaths)
		}
		for i := range par.MaterializedPaths {
			if par.MaterializedPaths[i] != serial.MaterializedPaths[i] {
				t.Fatalf("run %d: MaterializedPaths %v vs %v", run, par.MaterializedPaths, serial.MaterializedPaths)
			}
		}
	}
}

func TestSkewedPartitionsStraggle(t *testing.T) {
	// Two tables with identical rows: one balanced across 4 partitions,
	// one with everything in a single hot partition. The same downstream
	// operator must show higher simulated latency on the skewed layout.
	cat := catalog.New()
	sch := data.Schema{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindFloat}}
	balanced := data.NewTable("balanced", "g", sch, 4)
	skewed := data.NewTable("skewed", "g", sch, 4)
	rr := 0
	for i := 0; i < 400; i++ {
		row := data.Row{data.Int(int64(i)), data.Float(float64(i))}
		balanced.AppendHash(row, nil, &rr) // round robin: balanced
		skewed.Partitions[0] = append(skewed.Partitions[0], row)
	}
	cat.Register(balanced)
	cat.Register(skewed)
	e := &Executor{Catalog: cat, Store: storage.NewStore()}

	run := func(table string) float64 {
		p := plan.Scan(table, "g", sch).
			Filter(expr.B(expr.OpGe, expr.C(0, "k"), expr.Lit(data.Int(0)))).
			Output("o")
		res, err := e.RunCtx(context.Background(), p, table, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency
	}
	if lb, ls := run("balanced"), run("skewed"); ls <= lb {
		t.Errorf("skewed latency %.1f should exceed balanced %.1f", ls, lb)
	}
}
