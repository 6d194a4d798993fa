package exec

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
)

// compiledRefPred is a predicate that exercises every compiler path at
// once: fused int comparison, float arithmetic, a builtin call, and a
// default-body UDF, glued by And/Or.
func compiledRefPred() expr.Expr {
	return expr.And(
		expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1))),
		expr.B(expr.OpOr,
			expr.B(expr.OpLt,
				expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
				expr.Lit(data.Float(12.0))),
			expr.Eq(
				expr.B(expr.OpMod,
					&expr.UDF{Name: "u", CodeHash: "h1", Args: []expr.Expr{expr.C(0, "item")}},
					expr.Lit(data.Int(3))),
				expr.Lit(data.Int(1)))))
}

// TestExecCompiledMatchesInterpreter runs filter and project vertices
// through the executor (which uses the compiled path) and checks every
// output row — and the filter's Stats.Bytes — against a reference computed
// by walking the input rows with the tree interpreter directly.
func TestExecCompiledMatchesInterpreter(t *testing.T) {
	e := env(t)
	scan := plan.Scan("sales", "sales-v1", salesSchema()).Output("in")
	inRes, err := e.RunCtx(context.Background(), scan, "ref-in", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	input := inRes.Outputs["in"]

	pred := compiledRefPred()
	projExprs := []expr.Expr{
		expr.C(0, "item"),
		expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
		expr.F("if",
			expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(2))),
			expr.Lit(data.String_("bulk")),
			expr.Lit(data.String_("single"))),
		expr.Lit(data.Null()),
	}

	// Interpreter reference: filter then project, row by row, in input
	// order (the executor preserves intra-partition order and the gathered
	// output concatenates partitions in order, same as the scan above).
	var wantRows []data.Row
	var wantFilterBytes int64
	for _, r := range input {
		if !pred.Eval(r).Truth() {
			continue
		}
		wantFilterBytes += r.ByteSize()
		out := make(data.Row, len(projExprs))
		for i, pe := range projExprs {
			out[i] = pe.Eval(r)
		}
		wantRows = append(wantRows, out)
	}
	if len(wantRows) == 0 || len(wantRows) == len(input) {
		t.Fatalf("degenerate reference: %d of %d rows kept", len(wantRows), len(input))
	}

	p := plan.Scan("sales", "sales-v1", salesSchema()).
		Filter(pred).
		Project([]string{"item", "rev", "bucket", "pad"}, projExprs).
		Output("o")
	res, err := e.RunCtx(context.Background(), p, "compiled", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Outputs["o"]
	if len(got) != len(wantRows) {
		t.Fatalf("executor produced %d rows, interpreter reference %d", len(got), len(wantRows))
	}
	for i := range got {
		if len(got[i]) != len(wantRows[i]) {
			t.Fatalf("row %d: width %d, want %d", i, len(got[i]), len(wantRows[i]))
		}
		for j := range got[i] {
			a, b := got[i][j], wantRows[i][j]
			if a.K != b.K || a.I != b.I || a.S != b.S || a.F != b.F {
				t.Fatalf("row %d col %d: executor %#v, interpreter %#v", i, j, a, b)
			}
		}
	}

	// The fused byte accounting must equal a plain ByteSize walk of the
	// rows each operator emitted.
	filterNode := p.Children[0].Children[0]
	if filterNode.Kind != plan.OpFilter {
		t.Fatalf("plan shape changed: %v", filterNode.Kind)
	}
	if fb := res.NodeStats[filterNode].Bytes; fb != wantFilterBytes {
		t.Errorf("filter Stats.Bytes = %d, reference walk %d", fb, wantFilterBytes)
	}
	var wantProjBytes int64
	for _, r := range wantRows {
		wantProjBytes += r.ByteSize()
	}
	projNode := p.Children[0]
	if pb := res.NodeStats[projNode].Bytes; pb != wantProjBytes {
		t.Errorf("project Stats.Bytes = %d, reference walk %d", pb, wantProjBytes)
	}
}

// TestCompiledSharedAcrossPartitionWorkers runs a filter+project job at a
// partition count well above the worker-pool budget, so one compiled
// program (and one projector) is evaluated concurrently by the partition
// workers forEachPartition fans out to; under -race this proves the
// read-only-program-plus-per-worker-Ctx contract at the executor level.
// The predicate includes a builtin and a UDF so the Ctx scratch-slice
// paths are part of the race surface. A second round runs concurrent jobs
// — each with its own plan tree, since plan.Node schema memoization is
// single-run — to put compile-and-evaluate itself under cross-job
// concurrency on the shared pool.
func TestCompiledSharedAcrossPartitionWorkers(t *testing.T) {
	e := env(t)
	build := func() *plan.Node {
		return plan.Scan("sales", "sales-v1", salesSchema()).
			ShuffleHash([]int{0}, 64).
			Filter(compiledRefPred()).
			Project([]string{"b", "rev"}, []expr.Expr{
				expr.F("concat", expr.Lit(data.String_("i")),
					expr.F("if", expr.B(expr.OpGt, expr.C(0, "item"), expr.Lit(data.Int(9))),
						expr.Lit(data.String_("+")), expr.Lit(data.String_("-")))),
				expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
			}).
			Output("o")
	}
	res, err := e.RunCtx(context.Background(), build(), "race-single", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Outputs["o"]
	if len(want) == 0 {
		t.Fatal("empty output")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := e.RunCtx(context.Background(), build(), fmt.Sprintf("race-%d", g), 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if len(r.Outputs["o"]) != len(want) {
				t.Errorf("job %d: %d rows, want %d", g, len(r.Outputs["o"]), len(want))
			}
		}(g)
	}
	wg.Wait()
}

// The Interp/Compiled benchmark pairs below isolate the partition-level
// scalar kernel — no job harness, no scan, no stats — so the ratio between
// the two is the pure expression-evaluation win the compiler delivers.
// BenchmarkExecFilter/BenchmarkExecProjectEmit measure the same kernels
// end-to-end, where fixed per-job costs (arena zeroing, GC, scheduling)
// dilute the ratio.

func benchFilterRows() []data.Row {
	rows := make([]data.Row, benchFactRows)
	for i := range rows {
		rows[i] = data.Row{
			data.Int(int64(i % benchDimRows)),
			data.Int(int64(i % 37)),
			data.Int(int64(1 + i%5)),
			data.Float(float64(i%1000) + 0.25),
		}
	}
	return rows
}

func benchKernelPred() expr.Expr {
	return expr.And(
		expr.B(expr.OpGt, expr.C(2, "qty"), expr.Lit(data.Int(1))),
		expr.B(expr.OpLt,
			expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
			expr.Lit(data.Float(1500))))
}

func BenchmarkExecFilterInterp(b *testing.B) {
	rows := benchFilterRows()
	pred := benchKernelPred()
	kept := make([]data.Row, 0, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kept = kept[:0]
		for _, r := range rows {
			if pred.Eval(r).Truth() {
				kept = append(kept, r)
			}
		}
	}
	sinkRows = kept
}

func BenchmarkExecFilterCompiled(b *testing.B) {
	rows := benchFilterRows()
	prog := expr.Compile(benchKernelPred(), salesSchema())
	ctx := prog.NewCtx()
	sel := make([]int32, 0, len(rows))
	kept := make([]data.Row, 0, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel = prog.SelectInto(ctx, rows, sel[:0])
		kept = kept[:0]
		for _, idx := range sel {
			kept = append(kept, rows[idx])
		}
	}
	sinkRows = kept
}

func benchProjectExprs() []expr.Expr {
	return []expr.Expr{
		expr.C(0, "item"),
		expr.B(expr.OpMul, expr.C(2, "qty"), expr.C(3, "price")),
		expr.C(2, "qty"),
	}
}

func BenchmarkExecProjectInterp(b *testing.B) {
	rows := benchFilterRows()
	exprs := benchProjectExprs()
	width := len(exprs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := data.NewRowArenaSized(len(rows) * width)
		out := make([]data.Row, len(rows))
		arena.NewRows(out, width)
		for ri, r := range rows {
			dst := out[ri]
			for ci, pe := range exprs {
				dst[ci] = pe.Eval(r)
			}
		}
		sinkRows = out
	}
}

func BenchmarkExecProjectCompiled(b *testing.B) {
	rows := benchFilterRows()
	proj := expr.CompileProject(benchProjectExprs(), salesSchema())
	ctx := proj.NewCtx()
	width := proj.Width()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena := data.NewRowArenaSized(len(rows) * width)
		out := make([]data.Row, len(rows))
		arena.NewRows(out, width)
		proj.EmitInto(ctx, rows, out)
		sinkRows = out
	}
}

var sinkRows []data.Row
