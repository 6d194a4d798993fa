// Command scoperun compiles and executes a SCOPE-like script (see
// internal/script for the grammar) against a generated catalog, printing
// the outputs and the per-job execution profile. It is the "run my script"
// developer experience on top of the engine.
//
// Catalogs:
//
//	-catalog tpcds     the 24-table TPC-DS catalog (default)
//	-catalog cluster   a generated recurring-workload cluster's tables
//
// Parameters bind with repeated -p name=value flags; values parse as
// int, float, or string (date values as plain ints).
//
//	scoperun -catalog tpcds query.scope
//	scoperun -p day=17003 -p minScore=12.5 daily.scope
//	echo 'r = EXTRACT FROM store_sales; OUTPUT r TO all;' | scoperun -
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"cloudviews/internal/catalog"
	"cloudviews/internal/data"
	"cloudviews/internal/exec"
	"cloudviews/internal/plan"
	"cloudviews/internal/report"
	"cloudviews/internal/script"
	"cloudviews/internal/storage"
	"cloudviews/internal/tpcds"
	"cloudviews/internal/workgen"
)

// paramFlags collects repeated -p name=value flags.
type paramFlags struct {
	params script.Params
}

func (p *paramFlags) String() string { return fmt.Sprintf("%v", p.params) }

func (p *paramFlags) Set(v string) error {
	name, raw, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=value, got %q", v)
	}
	if p.params == nil {
		p.params = script.Params{}
	}
	p.params[name] = parseValue(raw)
	return nil
}

func parseValue(raw string) data.Value {
	if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
		return data.Int(i)
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return data.Float(f)
	}
	switch raw {
	case "true":
		return data.Bool(true)
	case "false":
		return data.Bool(false)
	}
	return data.String_(raw)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("scoperun: ")
	catName := flag.String("catalog", "tpcds", "catalog to run against: tpcds | cluster")
	scale := flag.Float64("scale", 1.0, "TPC-DS scale factor")
	seed := flag.Int64("seed", 42, "catalog seed")
	maxRows := flag.Int("rows", 20, "output rows to print per sink")
	var params paramFlags
	flag.Var(&params, "p", "bind a script parameter: -p name=value (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		log.Fatal("usage: scoperun [flags] <script.scope | ->")
	}
	src, err := readScript(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	var cat *catalog.Catalog
	switch *catName {
	case "tpcds":
		cat = tpcds.Generate(*scale, *seed)
	case "cluster":
		cat = workgen.Generate(workgen.DefaultProfile("scoperun", *seed)).Catalog
	default:
		log.Fatalf("unknown catalog %q", *catName)
	}

	compiled, err := script.Compile(src, cat, params.params)
	if err != nil {
		log.Fatal(err)
	}
	ex := &exec.Executor{Catalog: cat, Store: storage.NewStore()}
	for i, root := range compiled.Outputs {
		res, err := ex.RunCtx(context.Background(), root, fmt.Sprintf("scoperun-%d", i), 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		printResult(root, res, *maxRows)
	}
}

func readScript(arg string) (string, error) {
	if arg == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(arg)
	return string(b), err
}

func printResult(root *plan.Node, res *exec.Result, maxRows int) {
	for name, rows := range res.Outputs {
		fmt.Printf("== output %s: %d row(s) ==\n", name, len(rows))
		t := &report.Table{Header: root.Schema().Names()}
		for i, r := range rows {
			if i >= maxRows {
				fmt.Printf("... %d more\n", len(rows)-maxRows)
				break
			}
			cells := make([]any, len(r))
			for j, v := range r {
				cells[j] = v.String()
			}
			t.Add(cells...)
		}
		t.Write(os.Stdout)
	}
	fmt.Printf("\nprofile: %d operators, simulated CPU %.1f cost-s, latency %.1f cost-s\n",
		len(res.NodeStats), res.TotalCPU, res.Latency)
}
