package bench

// Golden pin of the frontend: the exact signatures the signature package
// computes and the exact Decisions the optimizer takes on the two paper
// workloads (§7.1 production and §7.2 TPC-DS). The files under testdata/
// were recorded before the frontend fast path landed; any byte-level drift
// in signature computation, view matching, cost-based rejection, or
// materialization injection fails these tests. Regenerate deliberately with
//
//	go test ./internal/bench -run TestGoldenFrontend -update
//
// Both workloads run fully serially here — the golden contract includes
// decision order, which concurrent submission legitimately perturbs.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cloudviews/internal/core"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/tpcds"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestGoldenFrontendProduction(t *testing.T) {
	cfg := DefaultProdConfig()
	r, err := newRecurring(cfg.Profile)
	if err != nil {
		t.Fatal(err)
	}
	an, err := analyze(r.hist, cfg.analysis())
	if err != nil {
		t.Fatal(err)
	}
	picks, _ := cfg.relevantJobs(r.jobs, an)
	if len(picks) < 2 {
		t.Fatalf("only %d relevant jobs", len(picks))
	}
	cv := reuseService(r.cat, an.Annotations, core.Config{MaxViewsPerJob: 1})
	checkGolden(t, "golden_frontend_production.txt", frontendLines(t, cv, specs(picks)))
}

func TestGoldenFrontendTPCDS(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-DS golden run; skipped in -short mode")
	}
	cat := tpcds.Generate(tpcdsScale, tpcdsSeed)
	all := tpcdsSpecs((&tpcds.Builder{Cat: cat}).Queries())
	base := core.NewService(cat, core.Config{})
	if _, err := runAll(base, all); err != nil {
		t.Fatal(err)
	}
	an, err := analyze(base.Repo, tpcdsAnalysis())
	if err != nil {
		t.Fatal(err)
	}
	cv := reuseService(cat, an.Annotations, core.Config{MaxViewsPerJob: 1})
	checkGolden(t, "golden_frontend_tpcds.txt", frontendLines(t, cv, buildersFirst(all, an.JobOrder)))
}

// frontendLines submits specs to svc one by one and renders each job's
// signatures and reuse decision.
func frontendLines(t *testing.T, svc *core.Service, specs []core.JobSpec) string {
	t.Helper()
	comp := signature.NewComputer()
	var b strings.Builder
	for _, s := range specs {
		r, err := svc.Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s\n%s\n", sigLine(comp, s.Meta.JobID, s.Root), decLine(s.Meta.JobID, r.Decision))
	}
	return b.String()
}

// sigLine pins every signature of the job: the root pair verbatim plus a
// digest over all subgraph pairs in post-order, so any byte drift in any
// subgraph signature shows up.
func sigLine(comp *signature.Computer, jobID string, root *plan.Node) string {
	subs := comp.AllSubgraphs(root)
	h := sha256.New()
	for _, s := range subs {
		h.Write([]byte(s.Sig.Precise))
		h.Write([]byte{'|'})
		h.Write([]byte(s.Sig.Normalized))
		h.Write([]byte{'\n'})
	}
	rootSig := comp.Of(root)
	return fmt.Sprintf("sig %s root=%s/%s subgraphs=%d all=%s",
		jobID, rootSig.Precise, rootSig.Normalized, len(subs),
		hex.EncodeToString(h.Sum(nil))[:16])
}

func decLine(jobID string, d *optimizer.Decision) string {
	used := make([]string, len(d.ViewsUsed))
	for i, v := range d.ViewsUsed {
		used[i] = v.PreciseSig
	}
	built := make([]string, len(d.ViewsBuilt))
	for i, v := range d.ViewsBuilt {
		built[i] = v.PreciseSig
	}
	// Order is part of the contract: ViewsUsed in match order, ViewsBuilt
	// in injection (post-order) order, rejections in match order.
	return fmt.Sprintf("dec %s used=%s built=%s rejected=%s cost=%s",
		jobID,
		strings.Join(used, ","),
		strings.Join(built, ","),
		strings.Join(d.ViewsRejected, ","),
		strconv.FormatFloat(d.EstimatedCost, 'x', -1, 64))
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	wantLines := strings.Split(strings.TrimRight(string(want), "\n"), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
	t.Fatalf("%s differs in trailing whitespace", name)
}
