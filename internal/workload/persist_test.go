package workload

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	e, p := setup(t)
	repo := NewRepository()
	for i := int64(0); i < 3; i++ {
		res, err := e.RunCtx(context.Background(), p, "j", i, 0)
		if err != nil {
			t.Fatal(err)
		}
		repo.Record(meta("job-"+string(rune('a'+i)), i), p, res)
	}

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumJobs() != repo.NumJobs() {
		t.Errorf("jobs = %d, want %d", loaded.NumJobs(), repo.NumJobs())
	}
	a, b := repo.Observations(), loaded.Observations()
	if len(a) != len(b) {
		t.Fatalf("observations = %d, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i].PreciseSig != b[i].PreciseSig || a[i].NormSig != b[i].NormSig {
			t.Fatalf("obs %d signature mismatch", i)
		}
		if a[i].Rows != b[i].Rows || a[i].CumulativeCost != b[i].CumulativeCost {
			t.Fatalf("obs %d stats mismatch", i)
		}
		if a[i].Job != b[i].Job {
			t.Fatalf("obs %d job meta mismatch", i)
		}
		if len(a[i].Inputs) != len(b[i].Inputs) {
			t.Fatalf("obs %d inputs mismatch", i)
		}
	}
	// The loaded repository supports the analyzer's queries.
	if got := len(loaded.Window(1, 2)); got != len(repo.Window(1, 2)) {
		t.Errorf("window query differs after load: %d", got)
	}
	if loaded.InputPeriods()["events"] != repo.InputPeriods()["events"] {
		t.Error("input periods differ after load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not json",
		`{"Format":"something-else","Version":1}`,
		`{"Format":"cloudviews-workload","Version":99}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load(%q) should fail", c)
		}
	}
	// Truncated observation stream.
	e, p := setup(t)
	repo := NewRepository()
	res, err := e.RunCtx(context.Background(), p, "j", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	repo.Record(meta("j", 0), p, res)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.String()[:buf.Len()-10]
	if _, err := Load(strings.NewReader(trunc)); err == nil {
		t.Error("truncated stream should fail")
	}
}

func TestSaveEmptyRepository(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRepository().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumJobs() != 0 || len(loaded.Observations()) != 0 {
		t.Error("empty round trip not empty")
	}
}
