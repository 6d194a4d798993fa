package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/exec"
	"cloudviews/internal/metadata"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/storage"
)

// layerOps is how a pass reaches the service: the untraced pass goes
// through the public service API, the traced pass calls each layer's
// public functions with a span around every call.
type layerOps interface {
	beginInstance(svc *core.Service, i int64)
	analyze(svc *core.Service, cfg analyzer.Config)
	load(svc *core.Service, anns []metadata.Annotation)
	runJob(ctx context.Context, svc *core.Service, spec core.JobSpec) jobOutcome
	// sign is untimed extra work after a period's jobs.
	sign(jobs []core.JobSpec)
}

// jobOutcome is one job as the benchmark saw it.
type jobOutcome struct {
	plan *plan.Node
	res  *exec.Result
	dec  *optimizer.Decision
	err  error
	wall time.Duration
}

// serviceOps is the untraced pass: the public service API only.
type serviceOps struct{}

func (serviceOps) beginInstance(svc *core.Service, i int64) { svc.BeginInstance(i) }

func (serviceOps) analyze(svc *core.Service, cfg analyzer.Config) { svc.RunAnalyzer(cfg) }

func (serviceOps) load(svc *core.Service, anns []metadata.Annotation) { svc.Meta.LoadAnalysis(anns) }

func (serviceOps) sign([]core.JobSpec) {}

func (serviceOps) runJob(ctx context.Context, svc *core.Service, spec core.JobSpec) jobOutcome {
	jr, err := svc.Run(ctx, spec)
	if err != nil {
		return jobOutcome{err: err}
	}
	return jobOutcome{plan: jr.Plan, res: jr.Result, dec: jr.Decision}
}

// passStats accumulates one pass over the timed periods.
type passStats struct {
	periods   int
	jobs      int
	failed    int // jobs that returned an error
	wrong     int // jobs the correctness gate rejected
	timed     time.Duration
	walls     []float64 // per-job Service.Run wall time, ms
	allocated uint64    // TotalAlloc over the timed regions

	cvLatency, baseLatency float64
	cvCPU, baseCPU         float64

	viewsBuilt, viewsRead int
	encodedBytes          int64     // at rest, views written
	logicalBytes          int64     // decoded rows, views written
	workingSet            []float64 // per period: decoded MB of the views it wrote
	// peakRSS is the highest resident set, in MB, inside a timed region;
	// rssScope says whether that held ("timed") or the reset of the peak
	// failed and it is the whole process's peak ("process").
	peakRSS  float64
	rssScope string
	// views maps a view path to whether the view written there has been
	// read; unread counts views that were replaced or purged unread.
	views  map[string]bool
	unread int

	vertices, rows int64
	gcCPU, usedCPU float64            // runtime CPU classes over the whole pass, s
	cache          storage.CacheStats // summed over the pass's services

	digests [][]uint64 // per period, per job; compared across passes
}

// pass runs periods on fresh or carried-over services through ops,
// checking every job against the CloudViews-off pass.
// On a correctness failure run still returns the statistics so far.
type pass struct {
	sc  scenario
	ops layerOps
	// The pass runs at least periods periods, and more until it has run
	// minJobs jobs. The count never depends on speed, so two versions of
	// the program always run the same work.
	periods int
	minJobs int
	// tamper, when set, alters a job's result before it is checked.
	tamper func(jobID string, o jobOutcome)

	svc *core.Service
}

// chunk is how many periods' CloudViews-off results a pass computes
// ahead of running them.
const chunk = 8

// gateError is a correctness failure: a run that produces it reports no
// metrics.
type gateError struct {
	msg  string
	jobs []string // the jobs whose outputs the gate rejected, if any
}

func (e *gateError) Error() string { return "correctness gate: " + e.msg }

func gateErrorf(format string, args ...any) *gateError {
	return &gateError{msg: fmt.Sprintf(format, args...)}
}

func (ps *pass) run(ctx context.Context) (*passStats, error) {
	st := &passStats{views: map[string]bool{}, rssScope: "timed"}
	runtime.GC() // the runtime's CPU classes are exact right after a GC
	gc0, used0 := cpuClasses()
	var prev *core.Service
	for p := 0; ; p++ {
		if p >= ps.periods && st.jobs >= ps.minJobs {
			break
		}
		if p%chunk == 0 {
			// The CloudViews-off pass for the next chunk of periods runs
			// here, and its garbage is collected and returned to the OS
			// before the first timed period, so the timed periods pay only
			// for their own collections and resident memory.
			for q := p; q < p+chunk && (q < ps.periods || st.jobs < ps.minJobs); q++ {
				if err := ps.sc.prepare(q); err != nil {
					return nil, err
				}
			}
			debug.FreeOSMemory()
		}
		in, err := ps.sc.period(p)
		if err != nil {
			return nil, err
		}
		svc := ps.sc.service(p, prev)
		if prev != nil && svc != prev {
			if err := retire(st, prev); err != nil {
				return st, err
			}
		}
		prev, ps.svc = svc, svc

		if resetPeakRSS() != nil {
			st.rssScope = "process"
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		ps.sc.before(p, svc, ps.ops)
		outs := runClosedLoop(ctx, svc, ps.ops, in.jobs, in.serial)
		ps.sc.after(p, svc, ps.ops)
		st.timed += time.Since(t0)
		st.peakRSS = max(st.peakRSS, peakRSSMB())
		runtime.ReadMemStats(&ms1)
		st.allocated += ms1.TotalAlloc - ms0.TotalAlloc
		ps.ops.sign(in.jobs)

		if err := ps.check(st, svc, in, outs); err != nil {
			return st, err
		}
		st.periods++
	}
	if err := retire(st, prev); err != nil {
		return st, err
	}
	// Views still resident at the end may yet be read; only views that
	// are gone count as purged unread.
	for path, read := range st.views {
		if _, err := prev.Store.Get(path); !read && err != nil {
			st.unread++
		}
	}
	runtime.GC()
	gc1, used1 := cpuClasses()
	st.gcCPU, st.usedCPU = gc1-gc0, used1-used0
	return st, nil
}

// check is the correctness gate for one period: every job's output must
// equal its CloudViews-off output row for row, and a job whose plan the
// optimizer left alone must cost the same simulated CPU. It also folds
// the period into the pass statistics.
func (ps *pass) check(st *passStats, svc *core.Service, in *periodInput, outs []jobOutcome) error {
	digests := make([]uint64, len(outs))
	written := map[string]bool{}
	var bad, badIDs []string
	for i, o := range outs {
		st.jobs++
		if o.err != nil {
			st.failed++
			continue
		}
		st.walls = append(st.walls, float64(o.wall)/1e6)
		id := in.jobs[i].Meta.JobID
		if ps.tamper != nil {
			ps.tamper(id, o)
		}
		b := in.base[i]
		digests[i] = digestOutputs(o.res)
		switch {
		case digests[i] != b.digest:
			bad = append(bad, id+": output differs from the CloudViews-off pass")
			badIDs = append(badIDs, id)
			continue
		case !rewritten(o.plan) && o.res.TotalCPU != b.cpu:
			bad = append(bad, fmt.Sprintf("%s: unrewritten plan cost %v simulated CPU, CloudViews-off %v",
				id, o.res.TotalCPU, b.cpu))
			badIDs = append(badIDs, id)
			continue
		}
		st.cvLatency += o.res.Latency
		st.baseLatency += b.latency
		st.cvCPU += o.res.TotalCPU
		st.baseCPU += b.cpu
		st.vertices += int64(len(o.res.NodeStats))
		st.rows += resultRows(o.res)
		for _, v := range o.dec.ViewsUsed {
			st.viewsRead++
			if _, ok := st.views[v.Path]; ok {
				st.views[v.Path] = true
			}
		}
		for _, v := range o.dec.ViewsBuilt {
			st.viewsBuilt++
			if read, ok := st.views[v.Path]; ok && !read {
				st.unread++ // an earlier view at this path died unread
			}
			st.views[v.Path] = false
			written[v.Path] = true
		}
	}
	if len(bad) > 0 {
		st.wrong += len(bad)
		err := gateErrorf("period %d: %d of %d jobs wrong, first: %s", in.id, len(bad), len(outs), bad[0])
		err.jobs = badIDs
		return err
	}
	var ws int64
	for path := range written {
		v, err := svc.Store.Get(path)
		if err != nil {
			return gateErrorf("period %d: view %s built but not in the store: %v", in.id, path, err)
		}
		st.encodedBytes += v.Bytes
		st.logicalBytes += v.LogicalBytes
		ws += v.LogicalBytes
	}
	st.workingSet = append(st.workingSet, float64(ws)/1e6)
	st.digests = append(st.digests, digests)
	return nil
}

// retire closes out a service the pass is done with: every view
// registered in metadata must exist in the store, and its cache counters
// join the pass's.
func retire(st *passStats, svc *core.Service) error {
	if svc == nil {
		return nil
	}
	c := svc.Store.CacheStats()
	st.cache.Hits += c.Hits
	st.cache.Misses += c.Misses
	st.cache.Evictions += c.Evictions
	for _, v := range svc.Meta.Views() {
		if _, err := svc.Store.Get(v.Path); err != nil {
			return gateErrorf("view %s registered in metadata but missing from the store", v.Path)
		}
	}
	return nil
}

// runClosedLoop runs the first serial jobs one at a time, then the rest
// through the clients, each client submitting its next job only after its
// previous one returned.
func runClosedLoop(ctx context.Context, svc *core.Service, ops layerOps, jobs []core.JobSpec, serial int) []jobOutcome {
	out := make([]jobOutcome, len(jobs))
	runOne := func(i int) {
		t := time.Now()
		o := ops.runJob(ctx, svc, jobs[i])
		o.wall = time.Since(t)
		out[i] = o
	}
	for i := 0; i < serial && i < len(jobs); i++ {
		runOne(i)
	}
	var next atomic.Int64
	next.Store(int64(serial))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// sameOutputs checks that two passes over the same periods produced
// identical outputs job for job.
func sameOutputs(a, b *passStats) error {
	if len(a.digests) != len(b.digests) {
		return gateErrorf("passes ran %d and %d periods", len(a.digests), len(b.digests))
	}
	for p := range a.digests {
		for i := range a.digests[p] {
			if a.digests[p][i] != b.digests[p][i] {
				return gateErrorf("period %d job %d: traced and untraced outputs differ", p, i)
			}
		}
	}
	return nil
}
