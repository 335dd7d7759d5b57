package main

// CPU attribution by module from the standard runtime/pprof profile.
// The profile is a gzipped protocol buffer (profile.proto); the few
// fields needed here are decoded by hand, so the benchmark needs no
// module beyond the standard library.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the CPU-share buckets reported per phase: the
// repository modules on the benchmarked paths, then the benchmark's own
// driver code, the HTTP and network stack, garbage collection, and
// everything else.
var cpuBuckets = []string{
	"server", "jobspec", "sched", "wal", "market", "bidbrain", "forecast",
	"sim", "core", "experiments", "trace", "obs",
	"harness", "http", "gc", "other",
}

// cpuProfile records one phase's CPU profile in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns each bucket's sampled CPU
// nanoseconds. A sample belongs to the innermost repository module on
// its stack, so a module's time includes the standard-library code it
// calls; samples with no repository frame fall into harness, http, gc
// or other.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	known := make(map[string]bool, len(cpuBuckets))
	for _, b := range cpuBuckets {
		known[b] = true
	}
	ns := make(map[string]float64, len(cpuBuckets))
	for _, s := range prof.samples {
		var names []string
		for _, loc := range s.locs {
			for _, fn := range prof.locFuncs[loc] {
				names = append(names, prof.strings[prof.funcName[fn]])
			}
		}
		b := bucketOf(names)
		if !known[b] {
			b = "other"
		}
		ns[b] += float64(s.value)
	}
	return ns, nil
}

// bucketOf attributes one stack, innermost frame first.
func bucketOf(frames []string) string {
	const repo = "proteus/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, repo); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			return mod
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "harness"
		}
	}
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.gcAssist"):
			return "gc"
		case strings.HasPrefix(f, "net/http."), strings.HasPrefix(f, "net."),
			strings.HasPrefix(f, "internal/poll."), strings.HasPrefix(f, "syscall."):
			return "http"
		}
	}
	return "other"
}

// profile is the decoded subset of profile.proto.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location ID → function IDs, innermost first
	funcName map[uint64]int64    // function ID → string table index
	strings  []string
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // the last sample value (CPU nanoseconds)
}

// Field numbers from profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			var vals []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, v, sub)
				case fSampleValue:
					return appendVarints(&vals, v, sub)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case fProfileStrings:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function name index %d out of range", idx)
		}
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var sub []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", typ, num)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (sub holds the
// varints) or not (v is one value).
func appendVarints(dst *[]uint64, v uint64, sub []byte) error {
	if sub == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return fmt.Errorf("bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// runtimeSample reads the runtime's cumulative GC CPU, total CPU and
// heap allocation counters.
type runtimeSample struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2)}
}
