package script

import (
	"context"
	"strings"
	"testing"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/expr"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

func testCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	clicks := data.NewTable("clicks", "g1", data.Schema{
		{Name: "user", Kind: data.KindInt},
		{Name: "url", Kind: data.KindString},
		{Name: "day", Kind: data.KindDate},
		{Name: "dur", Kind: data.KindFloat},
	}, 4)
	rr := 0
	for i := 0; i < 300; i++ {
		clicks.AppendHash(data.Row{
			data.Int(int64(i % 30)),
			data.String_("u" + string(rune('a'+i%5))),
			data.Date(17000 + int64(i%2)),
			data.Float(float64(i % 400)),
		}, []int{0}, &rr)
	}
	cat.Register(clicks)
	users := data.NewTable("users", "g2", data.Schema{
		{Name: "id", Kind: data.KindInt},
		{Name: "region", Kind: data.KindString},
	}, 2)
	for i := 0; i < 30; i++ {
		users.AppendHash(data.Row{data.Int(int64(i)), data.String_("r" + string(rune('0'+i%3)))}, []int{0}, &rr)
	}
	cat.Register(users)
	return cat
}

const fullScript = `
-- recurring template: today's per-user activity joined with user regions
rows   = EXTRACT FROM clicks;
today  = FILTER rows WHERE day == @day AND dur > 10;
part   = SHUFFLE today BY user INTO 8;
agg    = AGGREGATE part BY user SUM(dur), COUNT(url);
dim    = EXTRACT FROM users;
joined = JOIN agg WITH dim ON user == id;
ranked = SORT joined BY sum_dur DESC;
best   = TOP ranked 5;
OUTPUT best TO leaderboard;
`

func TestCompileAndExecuteFullScript(t *testing.T) {
	cat := testCatalog(t)
	c, err := Compile(fullScript, cat, Params{"day": data.Date(17000)})
	if err != nil {
		t.Fatal(err)
	}
	root, err := c.Root()
	if err != nil {
		t.Fatal(err)
	}
	if root.Kind != plan.OpOutput || root.OutputName != "leaderboard" {
		t.Fatalf("root = %v", root)
	}
	if len(c.Params) != 1 || c.Params[0] != "day" {
		t.Errorf("params = %v", c.Params)
	}
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	res, err := ex.RunCtx(context.Background(), root, "job", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Outputs["leaderboard"]
	if len(rows) != 5 {
		t.Fatalf("leaderboard rows = %d", len(rows))
	}
	// Sorted by sum_dur descending.
	for i := 1; i < len(rows); i++ {
		if rows[i-1][1].AsFloat() < rows[i][1].AsFloat() {
			t.Error("not sorted desc")
		}
	}
	// Join attached a region column.
	last := rows[0][len(rows[0])-1]
	if last.K != data.KindString || !strings.HasPrefix(last.S, "r") {
		t.Errorf("join region col = %v", last)
	}
}

func TestScriptsAreRecurringTemplates(t *testing.T) {
	// The same script with different @day bindings must produce plans with
	// equal normalized and distinct precise signatures — scripts ARE the
	// paper's recurring templates.
	cat := testCatalog(t)
	compile := func(day int64) *plan.Node {
		c, err := Compile(fullScript, cat, Params{"day": data.Date(day)})
		if err != nil {
			t.Fatal(err)
		}
		root, err := c.Root()
		if err != nil {
			t.Fatal(err)
		}
		return root
	}
	s1 := signature.Of(compile(17000))
	s2 := signature.Of(compile(17001))
	if s1.Normalized != s2.Normalized {
		t.Error("same template must share normalized signature across bindings")
	}
	if s1.Precise == s2.Precise {
		t.Error("different bindings must differ precisely")
	}
}

func TestSelectProjection(t *testing.T) {
	cat := testCatalog(t)
	src := `
rows = EXTRACT FROM clicks;
proj = SELECT user, dur * 2 AS dur2, upper(url) AS loud FROM rows;
OUTPUT proj TO o;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	sch := root.Schema()
	if sch.String() != "user:int, dur2:float, loud:string" {
		t.Fatalf("schema = %q", sch)
	}
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	res, err := ex.RunCtx(context.Background(), root, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Outputs["o"][0]
	if r[2].S != strings.ToUpper(r[2].S) {
		t.Error("upper() not applied")
	}
}

func TestProcessReduceUnionGatherTop(t *testing.T) {
	cat := testCatalog(t)
	src := `
a = EXTRACT FROM users;
b = EXTRACT FROM users;
u = UNION a, b;
g = GATHER u;
p = PROCESS g USING scrub VERSION 'v2';
r = REDUCE p BY region USING grouper;
OUTPUT r TO o;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	kinds := map[plan.OpKind]int{}
	plan.Walk(root, func(n *plan.Node) { kinds[n.Kind]++ })
	for _, k := range []plan.OpKind{plan.OpUnionAll, plan.OpExchange, plan.OpProcess, plan.OpReduce} {
		if kinds[k] == 0 {
			t.Errorf("missing %v in compiled plan", k)
		}
	}
	// The VERSION clause feeds the precise signature.
	var proc *plan.Node
	plan.Walk(root, func(n *plan.Node) {
		if n.Kind == plan.OpProcess {
			proc = n
		}
	})
	if proc.UDOCodeHash != "scrub-v2" {
		t.Errorf("code hash = %q", proc.UDOCodeHash)
	}
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	if _, err := ex.RunCtx(context.Background(), root, "j", 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExpressionGrammar(t *testing.T) {
	cat := testCatalog(t)
	src := `
rows = EXTRACT FROM clicks;
f = FILTER rows WHERE (dur + 1) * 2 >= 100 AND NOT (user == 3) OR url != 'ua';
OUTPUT f TO o;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	if _, err := ex.RunCtx(context.Background(), root, "j", 0, 0); err != nil {
		t.Fatal(err)
	}
	// Negative literal and modulo.
	src2 := `
rows = EXTRACT FROM clicks;
f = FILTER rows WHERE user % 2 == 0 AND dur > -5;
OUTPUT f TO o;
`
	if _, err := Compile(src2, cat, nil); err != nil {
		t.Fatal(err)
	}
	// DATE literal.
	src3 := `
rows = EXTRACT FROM clicks;
f = FILTER rows WHERE day == DATE 17000;
OUTPUT f TO o;
`
	if _, err := Compile(src3, cat, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMultipleOutputs(t *testing.T) {
	cat := testCatalog(t)
	src := `
rows = EXTRACT FROM clicks;
hot = FILTER rows WHERE dur > 200;
OUTPUT rows TO all;
OUTPUT hot TO hot_only;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outputs) != 2 {
		t.Fatalf("outputs = %d", len(c.Outputs))
	}
	if _, err := c.Root(); err == nil {
		t.Error("Root() should reject multi-output scripts")
	}
}

func TestCompileErrors(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no output", `rows = EXTRACT FROM clicks;`, "no OUTPUT"},
		{"unknown table", `r = EXTRACT FROM nope; OUTPUT r TO o;`, "unknown table"},
		{"unknown dataset", `f = FILTER ghost WHERE 1 == 1; OUTPUT f TO o;`, "unknown dataset"},
		{"unknown column", `r = EXTRACT FROM clicks; f = FILTER r WHERE bogus > 1; OUTPUT f TO o;`, "no column"},
		{"unbound param", `r = EXTRACT FROM clicks; f = FILTER r WHERE day == @d; OUTPUT f TO o;`, "unbound parameter"},
		{"redefined", `r = EXTRACT FROM clicks; r = EXTRACT FROM clicks; OUTPUT r TO o;`, "already defined"},
		{"missing semicolon", `r = EXTRACT FROM clicks OUTPUT r TO o;`, `expected ";"`},
		{"bad char", "r = EXTRACT FROM clicks; # ; OUTPUT r TO o;", "unexpected character"},
		{"unterminated string", `r = EXTRACT FROM clicks; f = FILTER r WHERE url == 'oops; OUTPUT f TO o;`, "unterminated"},
		{"empty aggregate", `r = EXTRACT FROM clicks; a = AGGREGATE r BY user; OUTPUT a TO o;`, "at least one aggregate"},
		{"union schema", `a = EXTRACT FROM clicks; b = EXTRACT FROM users; u = UNION a, b; OUTPUT u TO o;`, "different schemas"},
		{"empty param", `r = EXTRACT FROM clicks; f = FILTER r WHERE day == @; OUTPUT f TO o;`, "empty parameter"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, cat, nil)
			if err == nil {
				t.Fatalf("expected error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
			// Errors carry positions.
			if se, ok := err.(*Error); ok {
				if se.Line < 1 || se.Col < 1 {
					t.Errorf("bad position %d:%d", se.Line, se.Col)
				}
			}
		})
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	cat := testCatalog(t)
	src := `
rows = extract from clicks;
f = filter rows where dur > 100;
output f to o;
`
	if _, err := Compile(src, cat, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScriptEquivalentToBuilderAPI(t *testing.T) {
	// A script and the equivalent builder-API plan must have identical
	// signatures — the script layer adds no semantic surface.
	cat := testCatalog(t)
	src := `
rows = EXTRACT FROM clicks;
f = FILTER rows WHERE dur > 50;
s = SHUFFLE f BY user INTO 4;
a = AGGREGATE s BY user SUM(dur);
OUTPUT a TO o;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()

	tab, _ := cat.Get("clicks")
	manual := plan.Scan("clicks", tab.GUID, tab.Schema).
		Filter(expr.B(expr.OpGt, expr.C(3, "dur"), expr.Lit(data.Int(50)))).
		ShuffleHash([]int{0}, 4).
		HashAgg([]int{0}, []plan.AggSpec{{Fn: plan.AggSum, Col: 3}}).
		Output("o")
	if signature.Of(root) != signature.Of(manual) {
		t.Errorf("script plan differs from builder plan:\n%s\nvs\n%s",
			root.EncodeString(expr.Precise), manual.EncodeString(expr.Precise))
	}
}

func TestMoreGrammarCoverage(t *testing.T) {
	cat := testCatalog(t)
	// All aggregate functions, multi-column shuffle, ASC sort, multi-key
	// join, default shuffle width.
	src := `
rows = EXTRACT FROM clicks;
s = SHUFFLE rows BY user, day;
a = AGGREGATE s BY user SUM(dur), COUNT(url), MIN(dur), MAX(dur), AVG(dur);
b = AGGREGATE rows BY user, day SUM(dur);
j = JOIN a WITH b ON user == user;
o = SORT j BY user ASC, sum_dur DESC;
OUTPUT o TO out;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	if _, err := ex.RunCtx(context.Background(), root, "j", 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMoreErrorPaths(t *testing.T) {
	cat := testCatalog(t)
	cases := []struct{ name, src, want string }{
		{"output unknown", `OUTPUT ghost TO o;`, "unknown dataset"},
		{"output missing TO", `r = EXTRACT FROM clicks; OUTPUT r o;`, "expected TO"},
		{"bad shuffle count", `r = EXTRACT FROM clicks; s = SHUFFLE r BY user INTO x; OUTPUT s TO o;`, "partition count"},
		{"bad top count", `r = EXTRACT FROM clicks; s = TOP r many; OUTPUT s TO o;`, "row count"},
		{"join bad right col", `a = EXTRACT FROM clicks; b = EXTRACT FROM users; j = JOIN a WITH b ON user == nope; OUTPUT j TO o;`, "no column"},
		{"select no from", `r = EXTRACT FROM clicks; s = SELECT user; OUTPUT s TO o;`, "SELECT without FROM"},
		{"reduce missing by", `r = EXTRACT FROM clicks; s = REDUCE r USING f; OUTPUT s TO o;`, "expected BY"},
		{"process bad version", `r = EXTRACT FROM clicks; s = PROCESS r USING f VERSION 3; OUTPUT s TO o;`, "version string"},
		{"union single", `r = EXTRACT FROM clicks; u = UNION r; OUTPUT u TO o;`, "at least two"},
		{"keyword as op", `r = FROM clicks; OUTPUT r TO o;`, "unexpected keyword"},
		{"stray expr token", `r = EXTRACT FROM clicks; f = FILTER r WHERE ;; OUTPUT f TO o;`, "unexpected"},
		{"date needs number", `r = EXTRACT FROM clicks; f = FILTER r WHERE day == DATE x; OUTPUT f TO o;`, "day number"},
		{"not an operator", `r = 42; OUTPUT r TO o;`, "operator keyword"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile(c.src, cat, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestSelectComputedAndParenthesized(t *testing.T) {
	cat := testCatalog(t)
	src := `
rows = EXTRACT FROM clicks;
p = SELECT (dur + 1.0) * 2.0, user AS who FROM rows;
OUTPUT p TO o;
`
	c, err := Compile(src, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	root, _ := c.Root()
	// Unnamed computed column gets a positional name.
	if root.Schema()[0].Name != "c0" || root.Schema()[1].Name != "who" {
		t.Errorf("schema = %s", root.Schema())
	}
}
