package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cloudviews/internal/fault"
)

// chaosRounds returns the soak length: the CHAOS_ROUNDS env knob, or the
// default that pushes the soak past 200 jobs (the acceptance floor).
func chaosRounds() int {
	if v := os.Getenv("CHAOS_ROUNDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 6
}

// TestChaosSoak drives batches of concurrent jobs through a service with a
// randomized (but seeded, hence reproducible) fault schedule — vertex
// crashes, slow stages, storage read/write failures, silent view
// corruption, metadata blackouts, admission preemptions — and asserts the
// crash invariants of TestRandomFailureInjection now under concurrency and
// partial recovery:
//
//  1. zero wrong results: every job validates byte-for-byte against a
//     clean baseline execution (Config.ValidateResults),
//  2. zero wedged locks and store↔metadata consistency after every round,
//  3. liveness: after the faults stop, a fresh submitter still builds or
//     reuses.
//
// Single-partition transient vertex failures must recover via retry — with
// the configured rates no job is expected to fail at all; any submission
// error fails the test.
//
// Each round additionally runs a lifecycle wave on top of the fault
// schedule: jobs with randomized mid-flight cancellations, pre-cancelled
// contexts, and tight logical-clock deadlines. A wave job either succeeds
// or fails with a typed *JobError (cancelled/deadline/shed) — and a failed
// job must leave nothing behind: no build locks, no published views, no
// store files, and no leaked goroutines once the soak ends.
func TestChaosSoak(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	rounds := chaosRounds()
	const (
		instancesPerRound = 3
		jobsPerInstance   = 12 // 6 specA + 6 specB variants
	)
	totalJobs := 0
	var agg RecoveryStats

	for round := 0; round < rounds; round++ {
		s := newService(t) // ValidateResults on: every job byte-diffs vs clean baseline
		s.Sched = newSchedulerWithVC("vc1", 64)
		seedHistory(t, s)
		totalJobs += 2

		in := fault.NewInjector(fault.Config{
			Seed:          int64(1000 + round),
			VertexCrash:   0.03,
			VertexSlow:    0.10,
			SlowDelay:     5,
			StorageRead:   0.03,
			StorageWrite:  0.02,
			CorruptWrite:  0.10,
			MetaBlackout:  0.08,
			AdmitDelay:    0.10,
			AdmitDelayMax: 20,
		})
		s.InstallFaults(in)

		for inst := int64(1); inst <= instancesPerRound; inst++ {
			deliver(t, s.Catalog, inst)
			s.BeginInstance(inst)
			var batch []JobSpec
			for j := 0; j < jobsPerInstance/2; j++ {
				batch = append(batch,
					specA(fmt.Sprintf("r%d-i%d-a%d", round, inst, j), inst),
					specB(fmt.Sprintf("r%d-i%d-b%d", round, inst, j), inst))
			}
			if _, err := s.RunBatch(context.Background(), batch, BatchOptions{Concurrency: 8}); err != nil {
				t.Fatalf("round %d instance %d: job failed under chaos: %v", round, inst, err)
			}
			totalJobs += len(batch)

			// Store↔metadata consistency after every instance: every
			// registered view has its file.
			for _, mv := range s.Meta.Views() {
				if _, err := s.Store.Get(mv.Path); err != nil {
					t.Fatalf("round %d: metadata references missing file %s", round, mv.Path)
				}
			}
			// Cache↔store consistency: a quarantined (deleted) view must
			// be dropped from the hot cache with its file — every cached
			// path still resolves.
			for _, p := range s.Store.CachedPaths() {
				if _, err := s.Store.Get(p); err != nil {
					t.Fatalf("round %d: hot cache holds dropped view %s", round, p)
				}
			}
		}

		// Lifecycle wave: cancellations and tight deadlines under the same
		// fault schedule. Modes rotate deterministically; the mid-flight
		// cancel delay is wall-clock (cancellation is asynchronous by
		// nature), so whether those jobs finish first is racy — both
		// outcomes must satisfy the invariants below.
		waveRng := rand.New(rand.NewSource(int64(9000 + round)))
		const waveJobs = 8
		waveErr := make([]error, waveJobs)
		waveID := make([]string, waveJobs)
		delays := make([]time.Duration, waveJobs)
		for j := range delays {
			delays[j] = time.Duration(waveRng.Int63n(int64(2 * time.Millisecond)))
		}
		var wg sync.WaitGroup
		for j := 0; j < waveJobs; j++ {
			id := fmt.Sprintf("r%d-wave-%d", round, j)
			waveID[j] = id
			var spec JobSpec
			if j%2 == 0 {
				spec = specA(id, instancesPerRound)
			} else {
				spec = specB(id, instancesPerRound)
			}
			mode := j % 4
			wg.Add(1)
			go func(j int, spec JobSpec, mode int, delay time.Duration) {
				defer wg.Done()
				ctx := context.Background()
				switch mode {
				case 0: // clean lifecycle, chaos only
				case 1: // mid-flight cancel after a tiny wall delay
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					timer := time.AfterFunc(delay, cancel)
					defer timer.Stop()
					defer cancel()
				case 2: // pre-cancelled: must never execute
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(ctx)
					cancel()
				case 3: // unmeetable deadline on the logical clock
					spec.Deadline = s.Clock.Now() + 1
				}
				_, waveErr[j] = s.Run(ctx, spec)
			}(j, spec, mode, delays[j])
		}
		wg.Wait()
		failedWave := map[string]bool{}
		for j, err := range waveErr {
			if err == nil {
				continue
			}
			var je *JobError
			if !errors.As(err, &je) {
				t.Fatalf("round %d: wave job %s failed without a typed JobError: %v", round, waveID[j], err)
			}
			switch je.Reason {
			case ReasonCancelled, ReasonDeadline, ReasonShed:
			default:
				t.Fatalf("round %d: wave job %s failed with reason %v: %v", round, waveID[j], je.Reason, err)
			}
			failedWave[waveID[j]] = true
		}
		if !failedWave[waveID[2]] { // mode 2 is pre-cancelled
			t.Fatalf("round %d: pre-cancelled wave job succeeded", round)
		}
		totalJobs += waveJobs
		// Failed wave jobs must have published nothing.
		for _, mv := range s.Meta.Views() {
			if failedWave[mv.ProducerJobID] {
				t.Fatalf("round %d: failed wave job %s left published view %s", round, mv.ProducerJobID, mv.Path)
			}
		}
		for _, sv := range s.Store.Views() {
			if failedWave[sv.ProducerJobID] {
				t.Fatalf("round %d: failed wave job %s left file %s in the store", round, sv.ProducerJobID, sv.Path)
			}
		}
		// Store↔metadata consistency held through the wave's retractions.
		for _, mv := range s.Meta.Views() {
			if _, err := s.Store.Get(mv.Path); err != nil {
				t.Fatalf("round %d: after wave, metadata references missing file %s", round, mv.Path)
			}
		}

		// Faults off: the service must be fully live again.
		s.InstallFaults(nil)
		if _, _, locks, _, _ := s.Meta.Stats(); locks != 0 {
			t.Fatalf("round %d: %d build locks wedged after all jobs completed", round, locks)
		}
		follow, err := s.Run(context.Background(), specB(fmt.Sprintf("r%d-follow", round), instancesPerRound))
		if err != nil {
			t.Fatalf("round %d: clean follow-up failed: %v", round, err)
		}
		if len(follow.Decision.ViewsUsed)+len(follow.Decision.ViewsBuilt) == 0 {
			t.Fatalf("round %d: follow-up neither built nor reused (wedged?)", round)
		}
		totalJobs++

		rec := s.Snapshot().Recovery
		agg.VertexRetries += rec.VertexRetries
		agg.QuarantinedViews += rec.QuarantinedViews
		agg.DegradedReplans += rec.DegradedReplans
		agg.ReuseSkipped += rec.ReuseSkipped
		agg.Shed += rec.Shed
		agg.DeadlineExceeded += rec.DeadlineExceeded
		agg.Cancelled += rec.Cancelled
		agg.BreakerOpens += rec.BreakerOpens
		agg.BreakerShortCircuits += rec.BreakerShortCircuits
		if fired := in.TotalFired(); fired == 0 {
			t.Fatalf("round %d: injector fired nothing — the soak tested nothing", round)
		}
	}

	if wantFloor := 200; rounds >= 6 && totalJobs < wantFloor {
		t.Fatalf("soak ran %d jobs, acceptance floor is %d", totalJobs, wantFloor)
	}
	// The fault classes must actually have exercised the recovery paths.
	if agg.VertexRetries == 0 {
		t.Error("no vertex retries over the whole soak — retry path untested")
	}
	if agg.ReuseSkipped == 0 {
		t.Error("no degraded lookups over the whole soak — blackout path untested")
	}
	// The lifecycle wave must actually have exercised the lifecycle paths:
	// every round carries one pre-cancelled job and one unmeetable
	// deadline (which sheds or trips mid-run depending on queue state).
	if agg.Cancelled == 0 {
		t.Error("no cancellations over the whole soak — cancel path untested")
	}
	if agg.DeadlineExceeded+agg.Shed == 0 {
		t.Error("no deadline/shed failures over the whole soak — deadline path untested")
	}

	// Goroutine hygiene: every submission goroutine, DAG worker, and
	// context watcher must have wound down. Poll briefly — runtime
	// bookkeeping (GC workers, finished goroutines not yet reaped) settles
	// asynchronously.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseGoroutines+3 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live vs %d at start\n%s",
				runtime.NumGoroutine(), baseGoroutines, buf[:n])
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("chaos soak: %d jobs, recovery=%+v", totalJobs, agg)
}
