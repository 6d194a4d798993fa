package main

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"slices"
	"testing"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
)

// tiny shrinks each workload so a whole run takes about a second.
var tiny = map[string]func(seed int64) scenario{
	"recurring-highshare": func(seed int64) scenario {
		r := newHighShare(seed)
		r.profile.Templates, r.profile.Users, r.profile.RowsPerInput = 60, 12, 120
		return r
	},
	"recurring-lowshare": func(seed int64) scenario {
		r := newLowShare(seed)
		r.profile.Templates, r.profile.RowsPerInput = 60, 120
		return r
	},
	"tpcds-sf4": func(seed int64) scenario { return newTPCDS(seed, 0.25) },
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func tinyRun(t *testing.T, name string, trace bool, tamper func(string, jobOutcome)) (*report, error) {
	t.Helper()
	return run(context.Background(), config{
		workload: name, seed: 3, trace: trace,
		newScenario: tiny[name], tamper: tamper,
	})
}

// TestEveryWorkloadIsNamedAndTiny checks that BENCHMARK.json lists every
// workload except the unlisted ones, and that each has a tiny input.
func TestEveryWorkloadIsNamedAndTiny(t *testing.T) {
	listed := map[string]bool{}
	for _, w := range readBenchmark(t).Workloads {
		listed[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
		if unlisted[w.Name] != "" {
			t.Errorf("workload %s is both listed and unlisted", w.Name)
		}
	}
	for name := range workloads {
		if !listed[name] && unlisted[name] == "" {
			t.Errorf("workload %s is neither in BENCHMARK.json nor unlisted with a reason", name)
		}
		if tiny[name] == nil {
			t.Errorf("workload %s has no tiny input", name)
		}
	}
}

// TestMetricsEmitted runs every workload untraced and traced and checks
// that each metric BENCHMARK.json names comes out with its unit and a
// finite value.
func TestMetricsEmitted(t *testing.T) {
	bf := readBenchmark(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			rep, err := tinyRun(t, w.Name, trace, nil)
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				}
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
		}
	}
}

// TestGateCatchesAlteredRow changes one value of one output row of one
// job whose plan the optimizer left alone, so that its output is right
// unless altered; the correctness gate must fail the run on that job.
func TestGateCatchesAlteredRow(t *testing.T) {
	for name := range tiny {
		altered := ""
		tamper := func(id string, o jobOutcome) {
			if altered != "" || rewritten(o.plan) {
				return
			}
			for sink, rows := range o.res.Outputs {
				if len(rows) == 0 {
					continue
				}
				// Copy before changing: output rows may alias cached views.
				rows = append([]data.Row(nil), rows...)
				r := rows[0].Clone()
				r[0] = data.String_("altered")
				rows[0] = r
				o.res.Outputs[sink] = rows
				altered = id
				return
			}
		}
		rep, err := tinyRun(t, name, false, tamper)
		var ge *gateError
		switch {
		case altered == "":
			t.Errorf("%s: no job was altered", name)
		case !errors.As(err, &ge):
			t.Errorf("%s: altered row passed the gate (err %v)", name, err)
		case !slices.Contains(ge.jobs, altered):
			t.Errorf("%s: gate rejected %v, not the altered job %s (err %v)", name, ge.jobs, altered, err)
		case rep.Correct || rep.Failed < 1:
			t.Errorf("%s: gate failure reported correct=%v failed=%d", name, rep.Correct, rep.Failed)
		}
	}
}

// TestTracedMatchesUntraced checks that the traced run's outputs are
// identical to the untraced run's, job by job, and that the comparison
// catches a difference.
func TestTracedMatchesUntraced(t *testing.T) {
	for name := range tiny {
		rep, err := tinyRun(t, name, true, nil)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if n, _ := rep.provenance["traced_jobs"].(int); n == 0 || 2*n != rep.Attempted {
			t.Errorf("%s: traced %v of %d attempted jobs", name, rep.provenance["traced_jobs"], rep.Attempted)
		}
	}
	a := &passStats{digests: [][]uint64{{1, 2}, {3}}}
	b := &passStats{digests: [][]uint64{{1, 2}, {4}}}
	if err := sameOutputs(a, a); err != nil {
		t.Fatal(err)
	}
	var ge *gateError
	if err := sameOutputs(a, b); !errors.As(err, &ge) {
		t.Fatalf("differing outputs passed: %v", err)
	}
}

func TestDigestIsRowMultiset(t *testing.T) {
	r1 := data.Row{data.Int(1), data.String_("a")}
	r2 := data.Row{data.Int(2), data.Float(0.5)}
	d := func(rows ...data.Row) uint64 {
		return digestOutputs(&exec.Result{Outputs: map[string][]data.Row{"out": rows}})
	}
	if d(r1, r2) != d(r2, r1) {
		t.Error("row order changed the digest")
	}
	if d(r1, r2) == d(r1, r1) || d(r1) == d(r1, r1) {
		t.Error("different rows digest equal")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "job", Parent: -1, Start: 0, End: 100},
		{Name: "exec", Parent: 0, Start: 10, End: 60},
		{Name: "publish", Parent: 1, Start: 20, End: 30},
		{Name: "publish", Parent: 1, Start: 25, End: 40}, // overlaps its sibling
		{Name: "record", Parent: 0, Start: 70, End: 80},
	}
	got := selfTimes(spans)
	want := []int64{40, 30, 10, 15, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestKernelOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cloudviews/internal/exec.applyJoin.func3":              "join",
		"cloudviews/internal/exec.(*aggTable).update":           "agg",
		"cloudviews/internal/exec.mergeRuns":                    "sort",
		"cloudviews/internal/exec.(*Executor).applyMaterialize": "materialize",
		"cloudviews/internal/storage.decodeParallel.func1":      "viewscan",
		"cloudviews/internal/exec.forEachPartition.func1":       "",
		"cloudviews/internal/data/colenc.Decode":                "",
	} {
		if got := kernelOf(fn); got != want {
			t.Errorf("kernelOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
