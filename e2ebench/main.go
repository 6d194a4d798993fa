// Command e2ebench is the end-to-end benchmark of the CloudViews job
// service. It runs one named workload through the public service API as
// a closed loop of two clients, checks every job's output against a
// CloudViews-off pass, and prints the end-to-end metrics (--trace 0) or,
// from a separate traced run over the same periods, the per-layer metrics
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Simulated latency and CPU (internal/cluster's cost model) are the
// paper's quantities; wall time and memory are the implementation's cost.
// Metrics keep the two apart.
//
// --seconds sets how much work a run measures, not when it stops: the run
// executes --seconds times the workload's period rate on the 2-CPU machine
// the benchmark was calibrated on, so two versions of the program always
// run the same days or rounds.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload recurring-lowshare --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// workloads names the benchmark's workloads. BENCHMARK.json lists every
// one of them except those in unlisted.
var workloads = map[string]func(seed int64) scenario{
	"recurring-highshare": func(seed int64) scenario { return newHighShare(seed) },
	"recurring-lowshare":  func(seed int64) scenario { return newLowShare(seed) },
	"tpcds-sf4":           func(seed int64) scenario { return newTPCDS(seed, 4) },
}

// unlisted names the workloads BENCHMARK.json leaves out, with the reason.
// They still run, so the reason can be checked.
var unlisted = map[string]string{
	"recurring-highshare": "reuse changes some jobs' answers: an order-dependent operator (Top) over a reused view " +
		"keeps other rows than over the recomputed subgraph, so the correctness gate fails its runs from day 1",
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 5

// minPeriods is the fewest periods a pass runs.
const minPeriods = 2

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory for span files; "" writes none

	// The untraced pass runs seconds × the workload's periodsPerSecond
	// periods, but at least minPeriods periods and minJobs jobs (4000, so
	// that p99 wall time has 40 samples beyond it).
	minJobs int
	// newScenario overrides the named workload (tests use tiny inputs).
	newScenario func(seed int64) scenario
	// tamper, when set, alters a job's result before the gate checks it.
	tamper func(jobID string, o jobOutcome)
}

// report is one run's result.
type report struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	provenance map[string]any
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 10, "nominal timed seconds of the untraced pass; sets its work")
	flag.IntVar(&trace, "trace", 0, "1 prints per-layer metrics from a traced run")
	flag.StringVar(&cfg.out, "out", ".bench_build/e2ebench", "directory for span files")
	flag.Parse()
	cfg.seconds = float64(seconds)
	cfg.trace = trace == 1
	cfg.minJobs = 4000
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (have %v)\n", cfg.workload, names)
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	var ge *gateError
	if errors.As(err, &ge) {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		printResult(*rep)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	prov, _ := json.Marshal(map[string]any{"provenance": rep.provenance})
	fmt.Println(string(prov))
	printResult(*rep)
}

func printResult(r report) {
	b, _ := json.Marshal(r)
	fmt.Println(string(b))
}

// run sets up the workload, runs the untraced pass and, with cfg.trace,
// the traced pass over the same periods.
func run(ctx context.Context, cfg config) (*report, error) {
	newSc := cfg.newScenario
	if newSc == nil {
		newSc = workloads[cfg.workload]
	}
	var sc scenario
	var setups []setupTimes
	for i := 0; i < setupRepeats; i++ {
		sc = newSc(cfg.seed)
		st, err := sc.setup()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, st)
		runtime.GC()
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i].total() < setups[j].total() })
	setup := setups[len(setups)/2]

	periods := max(minPeriods, int(math.Ceil(cfg.seconds*sc.periodsPerSecond())))
	u := &pass{sc: sc, ops: serviceOps{}, periods: periods, minJobs: cfg.minJobs, tamper: cfg.tamper}
	us, err := u.run(ctx)
	if err != nil {
		return failedReport(us), err
	}
	rep := &report{Correct: true, Attempted: us.jobs, Failed: us.failed}
	rep.provenance = provenance(cfg, sc, us, u)
	u.svc = nil // let the untraced pass's repository go before the traced pass
	if !cfg.trace {
		rep.Metrics = endToEnd(us, setup)
		return rep, nil
	}

	tops := &tracedOps{rec: newRecorder()}
	t := &pass{sc: sc, ops: tops, periods: us.periods, tamper: cfg.tamper}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	ts, err := t.run(ctx)
	pprof.StopCPUProfile()
	if err == nil {
		err = sameOutputs(us, ts)
	}
	if err != nil {
		return failedReport(us, ts), err
	}
	rep.Attempted += ts.jobs
	rep.Failed += ts.failed
	heapLive := heapLiveMB()
	shares, profiled, err := kernelShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	enc, dec, err := replayStorage(ctx, t.svc)
	if err != nil {
		return nil, err
	}
	if cfg.out != "" {
		if err := os.MkdirAll(cfg.out, 0o755); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
		if err := tops.rec.write(filepath.Join(cfg.out, name)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.provenance["profiled_cpu_s"] = profiled
	rep.provenance["traced_jobs"] = ts.jobs
	rep.Metrics = perLayer(layerInput{
		sc: sc, setups: setups, setup: setup, untraced: us, traced: ts, ops: tops,
		svc: t.svc, shares: shares, encodeMBps: enc, decodeMBps: dec, heapLiveMB: heapLive,
	})
	return rep, nil
}

// failedReport is the result of a run the correctness gate stopped: no
// metrics, and every rejected job counted as failed.
func failedReport(passes ...*passStats) *report {
	r := &report{Metrics: map[string]metric{}}
	for _, st := range passes {
		if st != nil {
			r.Attempted += st.jobs
			r.Failed += st.failed + st.wrong
		}
	}
	r.Attempted = max(r.Attempted, 1)
	return r
}

// provenance records what the numbers were measured on and at what input
// size.
func provenance(cfg config, sc scenario, st *passStats, ps *pass) map[string]any {
	p := map[string]any{
		"workload":           cfg.workload,
		"seed":               cfg.seed,
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"nproc":              runtime.NumCPU(),
		"go_version":         runtime.Version(),
		"clients":            clients,
		"loop":               "closed",
		"seconds":            cfg.seconds,
		"timed_s":            st.timed.Seconds(),
		"trace":              cfg.trace,
		"periods":            st.periods,
		"jobs":               st.jobs,
		"jobs_per_period":    ratio(float64(st.jobs), float64(st.periods)),
		"wall_samples":       len(st.walls),
		"working_set_mb":     quantile(st.workingSet, 0.5),
		"cache_budget_bytes": ps.svc.Store.CacheBudget(),
		"peak_rss_scope":     st.rssScope,
	}
	for k, v := range sc.sizes() {
		p["input."+k] = v
	}
	return p
}

// endToEnd computes the metrics a user of the service sees.
func endToEnd(st *passStats, setup setupTimes) map[string]metric {
	completed := float64(st.jobs - st.failed)
	return map[string]metric{
		"jobs_per_s":                  {completed / st.timed.Seconds(), "1/s"},
		"job_wall_p50_ms":             {quantile(st.walls, 0.5), "ms"},
		"job_wall_p99_ms":             {quantile(st.walls, 0.99), "ms"},
		"setup_s":                     {setup.total().Seconds(), "s"},
		"sim_latency_saved_pct":       {(1 - ratio(st.cvLatency, st.baseLatency)) * 100, "%"},
		"sim_cpu_saved_pct":           {(1 - ratio(st.cvCPU, st.baseCPU)) * 100, "%"},
		"view_bytes_per_logical_byte": {ratio(float64(st.encodedBytes), float64(st.logicalBytes)), "ratio"},
		"alloc_mb_per_job":            {ratio(float64(st.allocated)/1e6, completed), "MB"},
		"peak_rss_mb":                 {st.peakRSS, "MB"},
	}
}
