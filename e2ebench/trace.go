package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"cloudviews/internal/analyzer"
	"cloudviews/internal/core"
	"cloudviews/internal/metadata"
	"cloudviews/internal/optimizer"
	"cloudviews/internal/plan"
	"cloudviews/internal/signature"
	"cloudviews/internal/storage"
)

// Span names. Each is the call the benchmark makes into one layer's public
// functions; "job" groups one job's spans.
const (
	spanJob       = "job"
	spanSignature = "signature.all_subgraphs"
	spanLookup    = "metadata.try_relevant_views"
	spanPublish   = "metadata.report_materialized"
	spanPurge     = "metadata.purge_expired"
	spanLoad      = "metadata.load_analysis"
	spanOptimize  = "optimizer.optimize"
	spanExec      = "exec.run"
	spanDelete    = "storage.delete"
	spanRecord    = "workload.record"
	spanAnalyze   = "analyzer.analyze"
)

// pipelineSpans are the layers a submission passes through, in the order
// core.submitJob calls them. The signature span is extra work the traced
// run adds, outside the timed region, to size signing's share of
// Optimize, so it is not one of them.
var pipelineSpans = []string{spanLookup, spanOptimize, spanExec, spanPublish, spanRecord}

// span is one call into a layer. Times are nanoseconds since the
// recorder's epoch; parent is an index into the recorder's spans, -1 for
// none.
type span struct {
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name, job string, parent int32) int32 {
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Name: name, Job: job, Parent: parent, Start: start, End: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	end := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, in nanoseconds.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(spans, children[i], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the child intervals, clipped to
// [lo, hi]. Children of one span may overlap: views of one job can seal
// on several executor workers at once.
func covered(spans []span, kids []int32, lo, hi int64) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// tracedOps is the traced pass. It calls the layers in the order
// core.submitJob does — metadata lookup, optimize, execute with views
// published as they seal, record — with a span around each call. It skips
// what core does around those calls: admission, the service's own obs
// trace, and recovery and replanning.
type tracedOps struct {
	rec *recorder

	mu       sync.Mutex
	lookups  int
	hits     int // lookups returning at least one annotation
	reused   int // of those, jobs that used or built a view
	used     int
	built    int
	rejected int
	// Per analyzer run: repository observations scanned, candidates and
	// selected views.
	scanned, candidates, selected []int
}

func (t *tracedOps) beginInstance(svc *core.Service, i int64) {
	// The two steps of core.Service.BeginInstance: purge registrations
	// first, then delete the files; then reclaim views a crashed builder
	// never registered.
	sp := t.rec.begin(spanPurge, "", -1)
	paths := svc.Meta.PurgeExpired(i)
	t.rec.end(sp)
	for _, path := range paths {
		d := t.rec.begin(spanDelete, "", -1)
		svc.Store.Delete(path)
		t.rec.end(d)
	}
	for _, v := range svc.Store.Views() {
		if v.ExpiresAt <= i {
			if _, ok := svc.Meta.LookupView(v.PreciseSig); !ok {
				d := t.rec.begin(spanDelete, "", -1)
				svc.Store.Delete(v.Path)
				t.rec.end(d)
			}
		}
	}
}

func (t *tracedOps) analyze(svc *core.Service, cfg analyzer.Config) {
	scanned := len(svc.Repo.Snapshot())
	sp := t.rec.begin(spanAnalyze, "", -1)
	an := analyzer.New(svc.Repo).Analyze(cfg)
	t.rec.end(sp)
	t.load(svc, an.Annotations)
	t.mu.Lock()
	t.scanned = append(t.scanned, scanned)
	t.candidates = append(t.candidates, len(an.Candidates))
	t.selected = append(t.selected, len(an.Selected))
	t.mu.Unlock()
}

func (t *tracedOps) load(svc *core.Service, anns []metadata.Annotation) {
	sp := t.rec.begin(spanLoad, "", -1)
	svc.Meta.LoadAnalysis(anns)
	t.rec.end(sp)
}

// sign runs one extra Computer.AllSubgraphs per plan, with a span around
// each, to size signing's share of Optimize. The pass calls it after a
// period's timed region, so it adds nothing to the traced wall time.
func (t *tracedOps) sign(jobs []core.JobSpec) {
	for _, spec := range jobs {
		sp := t.rec.begin(spanSignature, spec.Meta.JobID, -1)
		signature.NewComputer().AllSubgraphs(spec.Root)
		t.rec.end(sp)
	}
}

func (t *tracedOps) runJob(ctx context.Context, svc *core.Service, spec core.JobSpec) jobOutcome {
	id := spec.Meta.JobID
	job := t.rec.begin(spanJob, id, -1)
	defer t.rec.end(job)
	now := svc.Clock.Now()

	tags := append(plan.Inputs(spec.Root), spec.Meta.TemplateID)
	sp := t.rec.begin(spanLookup, id, job)
	anns, err := svc.Meta.TryRelevantViews(spec.Meta.VC, tags)
	t.rec.end(sp)
	if err != nil {
		return jobOutcome{err: err}
	}

	sp = t.rec.begin(spanOptimize, id, job)
	root, dec := svc.Opt.Optimize(spec.Root, id, anns, now)
	t.rec.end(sp)

	intents := map[string]optimizer.BuildIntent{}
	for _, b := range dec.ViewsBuilt {
		intents[b.PreciseSig] = b
	}
	var mu sync.Mutex
	sealed := map[string]bool{}
	execSpan := t.rec.begin(spanExec, id, job)
	ex := *svc.Exec
	ex.OnViewMaterialized = func(v *storage.View) {
		intent, ok := intents[v.PreciseSig]
		if !ok {
			return
		}
		v.ExpiresAt = spec.Meta.Instance + intent.ExpiryDelta
		pub := t.rec.begin(spanPublish, id, execSpan)
		svc.Meta.ReportMaterialized(metadata.ViewInfo{
			PreciseSig: v.PreciseSig, NormSig: v.NormSig, Path: v.Path,
			Schema: v.Schema, Props: v.Props, Rows: v.Rows,
			Bytes: v.LogicalBytes, EncodedBytes: v.Bytes,
			ProducerJobID: id, ExpiresAt: v.ExpiresAt,
		})
		t.rec.end(pub)
		mu.Lock()
		sealed[v.PreciseSig] = true
		mu.Unlock()
	}
	res, err := ex.RunCtx(ctx, root, id, now, 0)
	t.rec.end(execSpan)
	// A build that never sealed lost the first-writer race: release its
	// lock and keep only the views this job published, as core does.
	kept := dec.ViewsBuilt[:0]
	for _, b := range dec.ViewsBuilt {
		if sealed[b.PreciseSig] {
			kept = append(kept, b)
		} else {
			svc.Meta.AbortMaterialize(b.PreciseSig, id)
		}
	}
	dec.ViewsBuilt = kept
	if err != nil {
		return jobOutcome{err: err}
	}
	svc.Clock.AdvanceTo(now + int64(res.Latency) + 1)

	sp = t.rec.begin(spanRecord, id, job)
	svc.Repo.Record(spec.Meta, root, res)
	t.rec.end(sp)

	t.mu.Lock()
	t.lookups++
	if len(anns) > 0 {
		t.hits++
		if len(dec.ViewsUsed)+len(dec.ViewsBuilt) > 0 {
			t.reused++
		}
	}
	t.used += len(dec.ViewsUsed)
	t.built += len(dec.ViewsBuilt)
	t.rejected += len(dec.ViewsRejected)
	t.mu.Unlock()
	return jobOutcome{plan: root, res: res, dec: dec}
}

// layerTimes summarizes the spans by name: each span's self time, and per
// job the sum of the pipeline layers' self times.
type layerTimes struct {
	self    map[string][]float64 // span name → self times, µs
	jobSums []float64            // per job: pipeline self-time sum, µs
}

func summarize(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{self: map[string][]float64{}}
	jobIdx := map[int32]int{}
	inPipeline := map[string]bool{}
	for _, n := range pipelineSpans {
		inPipeline[n] = true
	}
	// Spans are appended in start order, so a parent precedes its
	// children and a job's sum is complete before it is read.
	for i, s := range spans {
		lt.self[s.Name] = append(lt.self[s.Name], float64(self[i])/1e3)
		if s.Name == spanJob {
			jobIdx[int32(i)] = len(lt.jobSums)
			lt.jobSums = append(lt.jobSums, 0)
			continue
		}
		if !inPipeline[s.Name] {
			continue
		}
		// Walk up to the job span (publish nests inside exec).
		p := s.Parent
		for p >= 0 && spans[p].Name != spanJob {
			p = spans[p].Parent
		}
		if j, ok := jobIdx[p]; ok && p >= 0 {
			lt.jobSums[j] += float64(self[i]) / 1e3
		}
	}
	return lt
}
