package main

import (
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"

	"cloudviews/internal/data"
	"cloudviews/internal/exec"
)

// digestOutputs hashes a job's outputs, sink by sink in name order. Each
// sink is digested as the multiset of its rows, the equality the
// service's own output validation (core.Config.ValidateResults) uses: a
// sink has no defined row order, but every row must match.
func digestOutputs(res *exec.Result) uint64 {
	names := make([]string, 0, len(res.Outputs))
	for name := range res.Outputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv{h: fnvOffset}
	for _, name := range names {
		h.str(name)
		rows := res.Outputs[name]
		hashes := make([]uint64, len(rows))
		for i, r := range rows {
			rh := fnv{h: fnvOffset}
			rh.row(r)
			hashes[i] = rh.h
		}
		slices.Sort(hashes)
		h.u64(uint64(len(rows)))
		for _, x := range hashes {
			h.u64(x)
		}
	}
	return h.h
}

const fnvOffset = 14695981039346656037

// fnv is 64-bit FNV-1a over a row's kinds and payloads.
type fnv struct{ h uint64 }

func (f *fnv) byte(b byte) {
	f.h ^= uint64(b)
	f.h *= 1099511628211
}

func (f *fnv) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.byte(byte(v >> (8 * i)))
	}
}

func (f *fnv) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
}

func (f *fnv) row(r data.Row) {
	f.u64(uint64(len(r)))
	for _, v := range r {
		f.byte(byte(v.K))
		switch v.K {
		case data.KindFloat:
			f.u64(math.Float64bits(v.F))
		case data.KindString:
			f.str(v.S)
		default:
			f.u64(uint64(v.I))
		}
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func meanInt(xs []int) float64 {
	var s int
	for _, x := range xs {
		s += x
	}
	return ratio(float64(s), float64(len(xs)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuClasses reads the runtime's cumulative GC CPU and used (non-idle) CPU
// estimates, in CPU-seconds.
func cpuClasses() (gc, used float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// heapLiveMB is the live heap marked by the last GC, in MB.
func heapLiveMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// resetPeakRSS sets the process's peak resident set (VmHWM) to its
// current resident set, so that peakRSSMB reads the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
