package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// The traced run charges CPU samples and heap allocations to the
// repository's modules. A sample is charged to the nearest frame above
// its leaf that belongs to a module, so standard-library and runtime
// work (compress/flate, mallocgc, a GC assist) counts against the code
// that asked for it. Samples from the collector's own workers are
// charged to gc, and samples with no module frame at all to runtime.

// Accounting buckets besides the modules named in shareModules.
const (
	bucketGC      = "gc"      // background mark, sweep and scavenge workers
	bucketRuntime = "runtime" // no module frame: scheduler, profiler, idle
	bucketOther   = "other"   // a module not listed in shareModules
	bucketBench   = "bench"   // the benchmark: generators and reference work
	bucketLake    = "lake"    // the streamlake package, the public API
)

// shareModules are the modules whose CPU and allocation shares are
// reported, in output order.
var shareModules = []string{
	"streamsvc", "bus", "streamobj", "plog", "shard", "pool", "cache",
	"convert", "rowcodec", "colfile", "tableobj", "lakehouse", "query",
	"kv", "tiering", "scrub", "resil", "faults", "sim", "obs", bucketLake, bucketBench,
}

// moduleOf maps a function name to its bucket, or "" for code outside
// the repository.
func moduleOf(fn string) string {
	const internal = "streamlake/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		rest := fn[len(internal):]
		mod := rest[:max(strings.IndexAny(rest, "./"), 0)]
		if mod == "workload" {
			return bucketBench // the input generators
		}
		for _, m := range shareModules {
			if m == mod {
				return m
			}
		}
		return bucketOther
	case strings.HasPrefix(fn, "streamlake."):
		return bucketLake
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "streamlake/perfbench"):
		return bucketBench
	}
	return ""
}

// gcWorkers are the runtime's own collector goroutines' entry points.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// chargeStack returns the bucket a stack (leaf first) is charged to.
func chargeStack(funcs []string) string {
	for _, fn := range funcs {
		if m := moduleOf(fn); m != "" {
			return m
		}
	}
	for _, fn := range funcs {
		for _, w := range gcWorkers {
			if fn == w {
				return bucketGC
			}
		}
	}
	return bucketRuntime
}

// moduleProfile accumulates per-bucket CPU samples and allocated bytes
// over the timed phases it is hooked around.
type moduleProfile struct {
	cpu     map[string]int64
	alloc   map[string]int64
	samples int64
	buf     bytes.Buffer
	before  map[string]int64
	rate    int // MemProfileRate outside profiled phases
}

// profiledRate samples allocations finely enough that one run's
// per-module shares rest on thousands of samples. It applies only
// inside profiled phases, so the other episodes run at the default
// rate; shares come from differences across a phase, during which the
// rate is constant.
const profiledRate = 16 << 10

func newModuleProfile() *moduleProfile {
	return &moduleProfile{cpu: map[string]int64{}, alloc: map[string]int64{}}
}

// hooks bracket a timed phase with a CPU profile and two heap-profile
// readings. The episode runner collects garbage just before, so the
// first reading is current; the second collects again to publish the
// phase's allocations.
func (mp *moduleProfile) hooks() *phaseHooks {
	return &phaseHooks{
		before: func() error {
			mp.rate, runtime.MemProfileRate = runtime.MemProfileRate, profiledRate
			mp.before = allocByBucket()
			mp.buf.Reset()
			return pprof.StartCPUProfile(&mp.buf)
		},
		after: func() error {
			pprof.StopCPUProfile()
			runtime.GC()
			for k, v := range allocByBucket() {
				mp.alloc[k] += v - mp.before[k]
			}
			runtime.MemProfileRate = mp.rate
			stacks, err := parseCPUProfile(mp.buf.Bytes())
			if err != nil {
				return fmt.Errorf("read CPU profile: %w", err)
			}
			for _, s := range stacks {
				mp.cpu[chargeStack(s.funcs)] += s.count
				mp.samples += s.count
			}
			return nil
		},
	}
}

// allocByBucket sums the heap profile's allocated bytes per bucket.
func allocByBucket() map[string]int64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := map[string]int64{}
	var funcs []string
	for _, r := range recs {
		funcs = funcs[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[chargeStack(funcs)] += r.AllocBytes
	}
	return out
}

// stackSample is one CPU profile sample: its stack as function names,
// leaf first, and how many times it was seen.
type stackSample struct {
	funcs []string
	count int64
}

// parseCPUProfile reads the samples of a gzipped pprof protobuf profile
// (github.com/google/pprof/proto/profile.proto). It decodes only the
// fields it needs: samples, locations, functions and the string table.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location → function ids, leaf first
		fnName  = map[uint64]int64{}    // function → string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0]) // sample_type 0 is the sample count
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var funcs []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		out = append(out, stackSample{funcs: funcs, count: s.count})
	}
	return out, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case wireI64:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case wireI32:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == wireVarint {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
