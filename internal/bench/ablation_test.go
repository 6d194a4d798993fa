package bench

import (
	"bytes"
	"sync"
	"testing"
)

// ablations runs RunAblations once for all ablation tests.
var ablations = sync.OnceValues(RunAblations)

func mustAblations(t *testing.T) *Ablations {
	t.Helper()
	a, err := ablations()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFeedbackAblation(t *testing.T) {
	r := mustAblations(t).Feedback
	// Selection by measured statistics must realize more savings than
	// selection by the naive estimate (the §5.1 argument).
	if r.MeasuredStatsPct <= r.EstimatesPct {
		t.Errorf("feedback loop %.1f%% should beat estimates %.1f%%",
			r.MeasuredStatsPct, r.EstimatesPct)
	}
	if r.MeasuredStatsPct <= 0 {
		t.Errorf("measured-stats selection saved nothing: %.1f%%", r.MeasuredStatsPct)
	}
}

func TestPhysicalDesignAblation(t *testing.T) {
	r := mustAblations(t).Design
	// A single-partition view collapses downstream parallelism; the
	// elected design must yield lower consumer latency (§5.3).
	if r.ElectedLatency >= r.NaiveLatency {
		t.Errorf("elected design latency %.1f should beat naive %.1f",
			r.ElectedLatency, r.NaiveLatency)
	}
}

func TestCoordinationAblation(t *testing.T) {
	r := mustAblations(t).Coordination
	// Coordinated submission realizes strictly more reuse than fully
	// concurrent uncoordinated arrival (§6.5).
	if r.CoordinatedPct <= r.UncoordinatedPct {
		t.Errorf("coordinated %.1f%% should beat uncoordinated %.1f%%",
			r.CoordinatedPct, r.UncoordinatedPct)
	}
}

func TestEarlyMatAblation(t *testing.T) {
	r := mustAblations(t).EarlyMat
	// After a builder crash, early materialization lets the next job
	// read the checkpointed view; late publication forces a recompute.
	if r.EarlyCPU >= r.LateCPU {
		t.Errorf("early-mat recovery CPU %.1f should beat late %.1f", r.EarlyCPU, r.LateCPU)
	}
}

func TestViewLimitAblation(t *testing.T) {
	r := mustAblations(t).ViewLimit
	for _, limit := range []int{1, 2, 4} {
		if _, ok := r.ImprovementPct[limit]; !ok {
			t.Fatalf("missing limit %d", limit)
		}
	}
	// Allowing more views per job must not hurt overall improvement
	// dramatically; typically it helps (more of the selected views get
	// built in the first pass).
	if r.ImprovementPct[4] < r.ImprovementPct[1]-5 {
		t.Errorf("limit-4 improvement %.1f%% collapsed vs limit-1 %.1f%%",
			r.ImprovementPct[4], r.ImprovementPct[1])
	}
}

func TestWriteAblations(t *testing.T) {
	var buf bytes.Buffer
	WriteAblations(&buf, mustAblations(t))
	checkGolden(t, "ablations.txt", buf.String())
}
