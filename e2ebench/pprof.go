package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// kernels are the executor kernels whose CPU share the traced run reports.
var kernels = []string{
	"join", "agg", "sort", "top", "exchange", "filter", "project",
	"process", "reduce", "materialize", "viewscan",
}

// kernelFuncs maps function-name prefixes (after the module path) to the
// kernel they belong to. Closures carry their enclosing function's name,
// so a partition worker is charged to the kernel that spawned it. Shared
// helpers are charged to the kernel they implement: the sorted-run
// helpers to sort, the scatter to exchange, the columnar encode to
// materialize and the decode to viewscan.
var kernelFuncs = []struct{ prefix, kernel string }{
	{"exec.applyJoin", "join"},
	{"exec.buildJoinTable", "join"},
	{"exec.newJoinShard", "join"},
	{"exec.(*joinShard)", "join"},
	{"exec.joinKeysMatch", "join"},
	{"exec.applyHashAgg", "agg"},
	{"exec.applyStreamAgg", "agg"},
	{"exec.newAggTable", "agg"},
	{"exec.(*aggTable)", "agg"},
	{"exec.keyEqual", "agg"},
	{"exec.keyRowsEqual", "agg"},
	{"exec.normAggValue", "agg"},
	{"exec.applySort", "sort"},
	{"exec.sortedFlatten", "sort"},
	{"exec.mergeRuns", "sort"},
	{"exec.fullRowTieBreak", "sort"},
	{"exec.sliceEquiDepth", "sort"},
	{"exec.applyTop", "top"},
	{"exec.applyExchange", "exchange"},
	{"exec.scatterRows", "exchange"},
	{"exec.applyFilter", "filter"},
	{"exec.applyProject", "project"},
	{"exec.applyProcess", "process"},
	{"exec.udoValue", "process"},
	{"exec.applyReduce", "reduce"},
	{"exec.sameKey", "reduce"},
	{"exec.(*Executor).applyMaterialize", "materialize"},
	{"exec.enforceDesign", "materialize"},
	{"storage.encodeParallel", "materialize"},
	{"exec.(*Executor).applyViewScan", "viewscan"},
	{"storage.decodeParallel", "viewscan"},
}

const modulePrefix = "cloudviews/internal/"

// kernelOf returns the kernel a function belongs to, or "".
func kernelOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	for _, k := range kernelFuncs {
		if strings.HasPrefix(rest, k.prefix) {
			return k.kernel
		}
	}
	return ""
}

// kernelShares parses a gzip-compressed pprof CPU profile and returns each
// kernel's share of all sampled CPU time, in percent, and the total
// sampled CPU time in seconds. A sample is charged to the innermost
// kernel function on its stack.
func kernelShares(prof []byte) (map[string]float64, float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	// Field numbers of perftools.profiles.Profile and its messages.
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	for _, k := range kernels {
		shares[k] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.value
		if k := sampleKernel(s.locs, locs, funcs, strs); k != "" {
			shares[k] += float64(s.value)
		}
	}
	if total > 0 {
		for k := range shares {
			shares[k] = shares[k] / float64(total) * 100
		}
	}
	return shares, float64(total) / 1e9, nil
}

func sampleKernel(stack []uint64, locs map[uint64][]uint64, funcs map[uint64]uint64, strs []string) string {
	for _, l := range stack {
		for _, f := range locs[l] {
			if n := funcs[f]; n < uint64(len(strs)) {
				if k := kernelOf(strs[n]); k != "" {
					return k
				}
			}
		}
	}
	return ""
}

// appendVarints appends a repeated integer field's values: one varint
// (unpacked) or a packed run of them.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks a protobuf message, calling fn with each field's number and
// either its integer value (b == nil) or its bytes.
func fields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b := buf[n : n+int(l)]
			buf = buf[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
		default:
			return errProto
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
