package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is a latency at the highest percentile that still has at least
// ten samples beyond it.
type tail struct {
	Pct   float64 // percentile, e.g. 99 or 95
	Value float64
	N     int // total samples
}

// tailOf picks the highest of p99.9, p99, p95, p90, p75, p50 that leaves
// at least ten samples above it. Fewer than 11 samples give no tail.
func tailOf(xs []float64) (tail, bool) {
	n := len(xs)
	if n < 11 {
		return tail{N: n}, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		idx := int(math.Ceil(p/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= 10 {
			return tail{Pct: p, Value: s[idx], N: n}, true
		}
	}
	return tail{N: n}, false
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocStats reads cumulative heap allocation (bytes, objects) and GC
// cycle counts without stopping the world.
func allocStats() (bytes, objects, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// phase brackets a timed phase: process CPU time, allocation, GC
// cycles, and the peak live heap sampled every 25ms.
type phase struct {
	cpu0           time.Duration
	allocB0, objs0 uint64
	gc0            uint64

	stop chan struct{}
	done chan struct{}
	peak uint64 // written by sample; read by end once done is closed
}

// phaseStats is what a finished phase measured.
type phaseStats struct {
	CPU         time.Duration
	AllocBytes  uint64
	AllocObjs   uint64
	GCCycles    uint64
	PeakHeapMiB float64
}

func startPhase() *phase {
	runtime.GC() // start every phase from the same live heap
	p := &phase{stop: make(chan struct{}), done: make(chan struct{})}
	p.allocB0, p.objs0, p.gc0 = allocStats()
	p.cpu0 = cpuTime()
	go p.sample()
	return p
}

// sample polls the live heap (as of the last GC) and keeps its peak. It
// exits when the phase ends.
func (p *phase) sample() {
	defer close(p.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(s)
		p.peak = max(p.peak, s[0].Value.Uint64())
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

func (p *phase) end() phaseStats {
	cpu := cpuTime() - p.cpu0
	b, o, g := allocStats()
	close(p.stop)
	<-p.done
	return phaseStats{
		CPU:         cpu,
		AllocBytes:  b - p.allocB0,
		AllocObjs:   o - p.objs0,
		GCCycles:    g - p.gc0,
		PeakHeapMiB: float64(p.peak) / (1 << 20),
	}
}

// layers are the repo's modules in pipeline order; a CPU sample goes to
// the innermost frame in one of them.
var layers = []string{"sig", "tracer", "trace", "core", "cluster", "mpi", "fleet",
	"store", "mesh", "cq", "zan", "analysis", "wave", "obs"}

// layerOf maps a function name to its chameleon/internal package's
// layer: one of layers, "other" for the remaining internal packages,
// "" for code outside chameleon/internal.
func layerOf(fn string) string {
	const pre = "chameleon/internal/"
	if !strings.HasPrefix(fn, pre) {
		return ""
	}
	pkg := fn[len(pre):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return "other"
}

// cpuShares decodes a gzipped pprof CPU profile and returns, per layer,
// its share of the sampled CPU time. Each sample goes to the innermost
// frame (inlined frames included) in a chameleon/internal package;
// samples with no such frame go to "runtime".
func cpuShares(raw []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					if b != nil {
						ids, err := pbPacked(b)
						s.locs = append(s.locs, ids...)
						return err
					}
					s.locs = append(s.locs, v)
				case 2:
					// The CPU profile carries [samples, nanoseconds];
					// the last value is the time.
					if b != nil {
						vals, err := pbPacked(b)
						if err != nil {
							return err
						}
						if len(vals) > 0 {
							s.value = int64(vals[len(vals)-1])
						}
						return nil
					}
					s.value = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcName[fid]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		shares[layer] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value (b == nil) or its length-delimited
// bytes. Fixed-width fields are skipped.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbPacked decodes a packed repeated varint field.
func pbPacked(b []byte) ([]uint64, error) {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}
