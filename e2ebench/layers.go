package main

import (
	"context"
	"fmt"
	"time"

	"cloudviews/internal/core"
	"cloudviews/internal/data"
	"cloudviews/internal/storage"
)

// layerInput is everything the per-layer metrics are computed from.
type layerInput struct {
	sc         scenario
	setups     []setupTimes
	setup      setupTimes // the median set-up
	untraced   *passStats
	traced     *passStats
	ops        *tracedOps
	svc        *core.Service // the traced pass's last service
	shares     map[string]float64
	encodeMBps float64
	decodeMBps float64
	heapLiveMB float64
}

// perLayer computes the per-layer metrics from the traced pass's spans
// and counters, its CPU profile, and the storage replay.
func perLayer(in layerInput) map[string]metric {
	lt := summarize(in.ops.rec.spans)
	ts, ops := in.traced, in.ops
	periods := float64(ts.periods)
	perPeriod := func(n int) float64 { return ratio(float64(n), periods) }
	completed := float64(ts.jobs - ts.failed)
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("signature.us_per_job", mean(lt.self[spanSignature]), "us")

	set("metadata.lookup_us_p50", quantile(lt.self[spanLookup], 0.5), "us")
	set("metadata.lookups", perPeriod(ops.lookups), "1/day")
	set("metadata.lookup_hit_ratio", ratio(float64(ops.hits), float64(ops.lookups)), "ratio")
	set("metadata.publish_us_per_view", mean(lt.self[spanPublish]), "us")
	set("metadata.purge_ms_per_day", sum(lt.self[spanPurge])/1e3/periods, "ms")

	set("optimizer.us_per_job", mean(lt.self[spanOptimize]), "us")
	set("optimizer.views_used", perPeriod(ops.used), "1/day")
	set("optimizer.views_built", perPeriod(ops.built), "1/day")
	set("optimizer.views_rejected", perPeriod(ops.rejected), "1/day")
	set("optimizer.reuse_ratio", ratio(float64(ops.reused), float64(ops.hits)), "ratio")

	set("exec.ms_per_job", mean(lt.self[spanExec])/1e3, "ms")
	set("exec.vertices_per_job", ratio(float64(ts.vertices), completed), "count")
	set("exec.rows_per_job", ratio(float64(ts.rows), completed), "count")
	for _, k := range kernels {
		set("exec.kernel."+k+".cpu_pct", in.shares[k], "%")
	}

	set("storage.views_written", perPeriod(ts.viewsBuilt), "1/day")
	set("storage.views_read", perPeriod(ts.viewsRead), "1/day")
	set("storage.reads_per_write", ratio(float64(ts.viewsRead), float64(ts.viewsBuilt)), "ratio")
	set("storage.unread_view_ratio", ratio(float64(ts.unread), float64(ts.viewsBuilt)), "ratio")
	set("storage.cache_hit_ratio", ratio(float64(ts.cache.Hits), float64(ts.cache.Hits+ts.cache.Misses)), "ratio")
	set("storage.cache_evictions", ratio(float64(ts.cache.Evictions), periods), "1/day")
	set("storage.encode_mb_per_s", in.encodeMBps, "MB/s")
	set("storage.decode_mb_per_s", in.decodeMBps, "MB/s")
	set("storage.decoded_working_set_mb", quantile(ts.workingSet, 0.5), "MB")

	set("workload.record_us_per_job", mean(lt.self[spanRecord]), "us")
	set("workload.observations", float64(len(in.svc.Repo.Snapshot())), "count")

	// Recurring workloads re-analyze every day; TPC-DS analyzes once, in
	// set-up, so its figures come from the set-up runs.
	first, scanned := in.sc.firstAnalysis()
	if runs := lt.self[spanAnalyze]; len(runs) > 0 {
		set("analyzer.ms_per_run", mean(runs)/1e3, "ms")
		set("analyzer.observations_scanned", meanInt(ops.scanned), "count")
		set("analyzer.candidates", meanInt(ops.candidates), "count")
		set("analyzer.selected", meanInt(ops.selected), "count")
	} else {
		var d []float64
		for _, s := range in.setups {
			d = append(d, float64(s.analyze)/1e6)
		}
		set("analyzer.ms_per_run", mean(d), "ms")
		set("analyzer.observations_scanned", float64(scanned), "count")
		set("analyzer.candidates", float64(len(first.Candidates)), "count")
		set("analyzer.selected", float64(len(first.Selected)), "count")
	}

	untracedP50 := quantile(in.untraced.walls, 0.5) * 1e3
	set("core.unattributed_us_per_job", untracedP50-quantile(lt.jobSums, 0.5), "us")
	set("core.job_fail_pct", ratio(float64(ts.failed+in.untraced.failed), float64(ts.jobs+in.untraced.jobs))*100, "%")

	set("runtime.gc_cpu_pct", ratio(ts.gcCPU, ts.usedCPU)*100, "%")
	set("runtime.heap_live_mb_end", in.heapLiveMB, "MB")

	set("setup.gen_s", in.setup.gen.Seconds(), "s")
	set("setup.history_s", in.setup.history.Seconds(), "s")
	set("setup.analyze_s", in.setup.analyze.Seconds(), "s")

	set("trace.overhead_pct", (ratio(ts.timed.Seconds(), in.untraced.timed.Seconds())-1)*100, "%")
	return m
}

// replayMin is how long the storage replay re-encodes and decodes.
const replayMin = 300 * time.Millisecond

// replayStorage re-encodes the views resident in svc's store through
// Store.WriteCtx into scratch stores, then cold-decodes each through
// ConsumeCtx with the cache disabled, repeating for at least replayMin.
// It returns encode and decode throughput in decoded MB/s.
func replayStorage(ctx context.Context, svc *core.Service) (encMBps, decMBps float64, err error) {
	type payload struct {
		v     *storage.View
		parts [][]data.Row
	}
	var views []payload
	for _, v := range svc.Store.Views() {
		hdr, parts, err := svc.Store.ConsumeCtx(ctx, v.Path)
		if err != nil {
			return 0, 0, fmt.Errorf("storage replay: read %s: %w", v.Path, err)
		}
		views = append(views, payload{hdr, parts})
	}
	if len(views) == 0 {
		return 0, 0, nil
	}
	var bytes int64
	var enc, dec time.Duration
	for start := time.Now(); time.Since(start) < replayMin; {
		scratch := storage.NewStore()
		scratch.SetCacheBudget(-1)
		for _, p := range views {
			v := &storage.View{
				Path: p.v.Path, PreciseSig: p.v.PreciseSig, NormSig: p.v.NormSig,
				ProducerJobID: p.v.ProducerJobID, ExpiresAt: p.v.ExpiresAt,
				Schema: p.v.Schema, Props: p.v.Props,
			}
			t := time.Now()
			if _, err := scratch.WriteCtx(ctx, v, p.parts); err != nil {
				return 0, 0, fmt.Errorf("storage replay: write %s: %w", v.Path, err)
			}
			enc += time.Since(t)
		}
		for _, p := range views {
			t := time.Now()
			if _, _, err := scratch.ConsumeCtx(ctx, p.v.Path); err != nil {
				return 0, 0, fmt.Errorf("storage replay: decode %s: %w", p.v.Path, err)
			}
			dec += time.Since(t)
			bytes += p.v.LogicalBytes
		}
	}
	mb := float64(bytes) / 1e6
	return mb / enc.Seconds(), mb / dec.Seconds(), nil
}
