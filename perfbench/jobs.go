package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"chameleon"
	"chameleon/internal/apps"
	"chameleon/internal/cluster"
	"chameleon/internal/core"
	_ "chameleon/internal/fleet" // registers the cross-process payload codecs
	"chameleon/internal/mpi"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// jobSpec sizes a job workload: one benchmark skeleton traced by
// Chameleon, in process or split into TCP members (inclusive rank
// ranges) inside this process.
type jobSpec struct {
	bench, class string
	p            int
	members      [][2]int
}

var jobSpecs = map[string]struct{ full, tiny jobSpec }{
	"trace-lu":  {jobSpec{"LU", "D", 64, nil}, jobSpec{"LU", "A", 8, nil}},
	"trace-emf": {jobSpec{"EMF", "D", 251, nil}, jobSpec{"EMF", "A", 8, nil}},
	"fleet-bt": {jobSpec{"BT", "C", 64, [][2]int{{0, 31}, {32, 63}}},
		jobSpec{"BT", "A", 8, [][2]int{{0, 3}, {4, 7}}}},
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// seededModel is the simulated machine a seed generates: the default
// cost model with latency and bandwidth each moved by up to ±5%.
func seededModel(seed uint64) vtime.CostModel {
	rng := rand.New(rand.NewPCG(seed, 0x6368616d))
	m := vtime.Default()
	m.Alpha = vtime.Duration(float64(m.Alpha) * (0.95 + 0.1*rng.Float64()))
	m.BetaNsPerByte *= 0.95 + 0.1*rng.Float64()
	return m
}

// jobOut is what one job produced.
type jobOut struct {
	wall          time.Duration
	makespan      vtime.Duration
	overhead      vtime.Duration
	file          *trace.File
	bin           []byte // WriteBinary of the merged trace
	sum           [32]byte
	stateCalls    map[string]int
	reclusterings int
	nodes         int
	tcp           mpi.TCPStats
	hooks         hookTimes
}

func finishOut(o *jobOut) error {
	if o.file == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := o.file.WriteBinary(&buf); err != nil {
		return fmt.Errorf("encode merged trace: %w", err)
	}
	o.bin = buf.Bytes()
	o.sum = sha256.Sum256(o.bin)
	o.nodes = trace.NodeCount(o.file.Nodes)
	return nil
}

// runPublic runs the job through the public API (chameleon.RunSpec),
// as a user would: the timed run.
func runPublic(js jobSpec, model vtime.CostModel, tr chameleon.Tracer, inProcess bool) (*jobOut, error) {
	spec, err := chameleon.NewBenchmark(js.bench, js.class, js.p)
	if err != nil {
		return nil, err
	}
	if inProcess || js.members == nil {
		start := time.Now()
		out, err := chameleon.RunSpec(spec, tr, &chameleon.Config{Model: model})
		if err != nil {
			return nil, err
		}
		o := &jobOut{wall: time.Since(start), makespan: out.Time, overhead: out.Overhead,
			file: out.Trace, stateCalls: out.StateCalls, reclusterings: out.Reclusterings}
		return o, finishOut(o)
	}
	return runFleet(js, func(tr mpi.Transport) (*jobOut, error) {
		out, err := chameleon.RunSpec(spec, chameleon.TracerChameleon, &chameleon.Config{Model: model, Transport: tr})
		if err != nil {
			return nil, err
		}
		return &jobOut{makespan: out.Time, overhead: out.Overhead, file: out.Trace,
			stateCalls: out.StateCalls, reclusterings: out.Reclusterings}, nil
	})
}

// runFleet forms a TCP fleet of the spec's members inside this process
// and runs one job on it; the result is rank 0's member with the summed
// transport counters and hook times. Wall time includes the rendezvous.
func runFleet(js jobSpec, one func(mpi.Transport) (*jobOut, error)) (*jobOut, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	join := ln.Addr().String()
	ln.Close()
	outs := make([]*jobOut, len(js.members))
	errs := make([]error, len(js.members))
	start := time.Now()
	var wg sync.WaitGroup
	for i, m := range js.members {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			tr, err := mpi.NewTCPTransport(mpi.TCPOptions{
				Join: join, RankLo: lo, RankHi: hi, P: js.p,
				Fingerprint: fmt.Sprintf("perfbench/%s/%s/%d", js.bench, js.class, js.p),
			})
			if err != nil {
				errs[i] = err
				return
			}
			outs[i], errs[i] = one(tr)
			if outs[i] != nil {
				outs[i].tcp = tr.Stats()
			}
		}(i, m[0], m[1])
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet member %d: %w", i, err)
		}
	}
	o := outs[0]
	o.wall = wall
	for _, m := range outs[1:] {
		o.tcp.FramesOut += m.tcp.FramesOut
		o.tcp.BytesOut += m.tcp.BytesOut
		o.tcp.FramesIn += m.tcp.FramesIn
		o.tcp.BytesIn += m.tcp.BytesIn
		o.tcp.BoundSweeps += m.tcp.BoundSweeps
		o.hooks.add(m.hooks)
	}
	return o, finishOut(o)
}

// hookTimes accumulates wall time inside the tracer hooks of one rank
// (or, summed, of a whole job).
type hookTimes struct {
	recordN, markerN          int64
	record, marker, finalizeT time.Duration
}

func (h *hookTimes) add(o hookTimes) {
	h.recordN += o.recordN
	h.markerN += o.markerN
	h.record += o.record
	h.marker += o.marker
	h.finalizeT += o.finalizeT
}

// timedHooks wraps the Interposer core.New returns and times each hook.
// Each instance is used by one rank goroutine only.
type timedHooks struct {
	in mpi.Interposer
	t  hookTimes
}

func isMarker(ci *mpi.CallInfo) bool { return ci.Op == mpi.OpBarrier && ci.Comm == mpi.CommMarker }

func (h *timedHooks) Pre(ci *mpi.CallInfo) {
	if !isMarker(ci) {
		h.in.Pre(ci)
		return
	}
	start := time.Now()
	h.in.Pre(ci)
	h.t.marker += time.Since(start)
}

func (h *timedHooks) Post(ci *mpi.CallInfo) {
	start := time.Now()
	h.in.Post(ci)
	d := time.Since(start)
	switch {
	case isMarker(ci):
		h.t.markerN++
		h.t.marker += d
	case ci.Op != mpi.OpFinalize:
		h.t.recordN++
		h.t.record += d
	}
}

func (h *timedHooks) Finalize() {
	start := time.Now()
	h.in.Finalize()
	h.t.finalizeT += time.Since(start)
}

// runHooked runs the job the way chameleon.RunSpec does for the
// Chameleon tracer, but calls mpi.Run itself so it can wrap each rank's
// Interposer in timedHooks: the traced run.
func runHooked(js jobSpec, model vtime.CostModel) (*jobOut, error) {
	spec, err := apps.Registry(js.bench, apps.ParseClass(js.class), js.p)
	if err != nil {
		return nil, err
	}
	one := func(tr mpi.Transport) (*jobOut, error) {
		col := core.NewCollector(spec.P)
		inner := core.New(col, core.Options{
			K:             spec.K,
			Algo:          cluster.ParseAlgorithm(""),
			CallFrequency: 1,
			SigMode:       spec.SigMode,
			Filter:        spec.Filter,
		})
		var wrappers []*timedHooks // filled before the rank goroutines start
		hooks := func(p *mpi.Proc) mpi.Interposer {
			w := &timedHooks{in: inner(p)}
			wrappers = append(wrappers, w)
			return w
		}
		body := spec.Make(apps.BodyOpts{Freq: spec.Freq, Markers: true})
		res, err := mpi.Run(mpi.Config{P: spec.P, Model: model, Hooks: hooks, Transport: tr}, body)
		if err != nil {
			return nil, err
		}
		o := &jobOut{makespan: res.Makespan, overhead: res.AggregateLedger().Overhead(),
			file: col.File(spec.P, spec.Name, spec.Filter), reclusterings: col.Reclusterings,
			stateCalls: map[string]int{}}
		for s := core.StateAT; s < core.NumStates; s++ {
			o.stateCalls[s.String()] = col.StateCalls[s]
		}
		for _, w := range wrappers {
			o.hooks.add(w.t)
		}
		return o, nil
	}
	if js.members == nil {
		start := time.Now()
		o, err := one(nil)
		if err != nil {
			return nil, err
		}
		o.wall = time.Since(start)
		return o, finishOut(o)
	}
	return runFleet(js, one)
}

func secs(d time.Duration) float64 { return d.Seconds() }

// runJobs drives trace-lu, trace-emf and fleet-bt.
func runJobs(b *bench) error {
	sizes := jobSpecs[b.workload]
	js := sizes.full
	if b.tiny {
		js = sizes.tiny
	}
	fleet := js.members != nil

	// Set-up: generate the inputs from the seed (the simulated machine)
	// and compute the reference output, several times; every repeat
	// must reproduce the first. For fleet-bt the reference is the
	// in-process run of the same spec.
	var ref *jobOut // the expected output every job is checked against
	var model vtime.CostModel
	var setupT, inprocWalls []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		model = seededModel(b.seed)
		out, err := runPublic(js, model, chameleon.TracerChameleon, true)
		if err != nil {
			return fmt.Errorf("set-up reference: %w", err)
		}
		setupT = append(setupT, secs(time.Since(start)))
		inprocWalls = append(inprocWalls, secs(out.wall))
		if ref == nil {
			ref = out
			continue
		}
		o := b.chk.begin()
		checkSame(o, "setup", ref, out)
		o.done()
	}

	// Timed jobs through the public API. Under -trace 1 they share the
	// window with the traced jobs: half each.
	window := b.dur
	if b.traced {
		window /= 2
	}
	var walls []float64
	jobs := 0
	var traceBytes, vOver float64
	ph := startPhase()
	for start := time.Now(); jobs == 0 || time.Since(start) < window; {
		runtime.GC() // every job starts from the same live heap
		out, err := runPublic(js, model, chameleon.TracerChameleon, false)
		o := b.chk.begin()
		if o.check("job.error", err == nil, "%v", err) {
			checkSame(o, "job", ref, out)
			walls = append(walls, secs(out.wall))
			traceBytes = float64(len(out.bin))
			vOver = out.overhead.Seconds()
		}
		o.done()
		jobs++
	}
	timed := ph.end()
	if len(walls) == 0 {
		return fmt.Errorf("no job completed")
	}

	jobWall := median(walls)
	b.setE2E("setup_s", median(setupT), "s")
	b.setE2E("op_p50_ms", jobWall*1e3, "ms")
	b.setE2E("cpu_ms_per_op", float64(timed.CPU)/1e6/float64(jobs), "ms")
	b.setE2E("peak_heap_mb", timed.PeakHeapMiB, "MiB")

	b.note("setup_s", median(setupT), "s", fmt.Sprintf("median of %d set-ups", setupRepeats))
	b.note("job_wall_s", jobWall, "s", fmt.Sprintf("median of %d jobs, %s class %s P=%d", len(walls), js.bench, js.class, js.p))
	b.note("peak_heap_mb", timed.PeakHeapMiB, "MiB", "")
	b.note("trace_bytes", traceBytes, "B", "WriteBinary of the merged trace")
	b.note("vtime_overhead_s", vOver, "s", "Output.Overhead (virtual)")
	b.na("ingest_p50_ms", "ingest_tail_ms", "query_p50_ms", "query_tail_ms")
	b.note("cpu_ms_per_op", float64(timed.CPU)/1e6/float64(jobs), "ms", "process CPU per job")
	if !b.traced {
		return nil
	}

	// Traced run: the same jobs with every tracer hook timed and a CPU
	// profile. Signatures differ (the wrapper adds a stack frame), so
	// each traced job proves it ran the same program by its virtual
	// makespan, state calls, reclusterings and node count.
	profPath := filepath.Join(b.outDir, b.workload+"-cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var hooks hookTimes
	var tWalls []float64
	tJobs := 0
	var tcp mpi.TCPStats
	var last *jobOut
	tph := startPhase()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	for start := time.Now(); tJobs == 0 || time.Since(start) < window; tJobs++ {
		runtime.GC()
		out, err := runHooked(js, model)
		o := b.chk.begin()
		if o.check("traced.error", err == nil, "%v", err) {
			o.check("traced.makespan", out.makespan == ref.makespan, "%v != %v", out.makespan, ref.makespan)
			o.check("traced.state_calls", reflect.DeepEqual(out.stateCalls, ref.stateCalls), "%v != %v", out.stateCalls, ref.stateCalls)
			o.check("traced.reclusterings", out.reclusterings == ref.reclusterings, "%d != %d", out.reclusterings, ref.reclusterings)
			o.check("traced.nodes", out.nodes == ref.nodes, "%d != %d", out.nodes, ref.nodes)
			tWalls = append(tWalls, secs(out.wall))
			hooks.add(out.hooks)
			tcp = out.tcp
			last = out
		}
		o.done()
	}
	pprof.StopCPUProfile()
	traced := tph.end()
	if err := prof.Close(); err != nil {
		return err
	}
	raw, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	shares, err := cpuShares(raw)
	if err != nil {
		return err
	}
	if last == nil {
		return fmt.Errorf("no traced job completed")
	}
	nJobs := float64(len(tWalls))

	// The same spec with no hooks at all, and (fleet-bt) in process.
	untraced, err := runPublic(js, model, chameleon.TracerNone, true)
	if err != nil {
		return fmt.Errorf("untraced job: %w", err)
	}

	enc, dec := codecTimes(last.file, last.bin)

	tracedWall := median(tWalls)
	overheadShare := tracedWall/jobWall - 1
	events := float64(hooks.recordN) / nJobs
	b.setLayer("bench.trace_overhead_share", overheadShare, "ratio")
	b.setLayer("gc.alloc_bytes_per_op", float64(timed.AllocBytes)/float64(jobs), "B")
	b.setLayer("gc.allocs_per_op", float64(timed.AllocObjs)/float64(jobs), "count")
	b.setLayer("gc.cycles", float64(timed.GCCycles), "count")
	b.setLayer("tracer.record_calls", events, "count")
	b.setLayer("core.marker_calls", float64(hooks.markerN)/nJobs, "count")
	b.setLayer("tcp.frames", float64(tcp.FramesOut), "count")
	b.setLayer("tcp.bytes", float64(tcp.BytesOut), "B")
	b.setLayer("tcp.bound_sweeps", float64(tcp.BoundSweeps), "count")
	b.setLayer("mesh.forwarded_per_op", 0, "count")
	b.setLayer("archive.runs_end", 0, "count")
	setCPUShares(b, shares)

	b.note("bench.trace_overhead_share", overheadShare, "ratio", fmt.Sprintf("traced job %.4gs vs timed %.4gs", tracedWall, jobWall))
	b.note("tracer.record_calls", events, "count", "per job, Post on application communicators")
	b.note("tracer.record_s", hooks.record.Seconds()/nJobs, "s", "per job, summed over ranks")
	b.note("tracer.record_ns_per_call", float64(hooks.record.Nanoseconds())/float64(max(hooks.recordN, 1)), "ns", "")
	b.note("core.marker_calls", float64(hooks.markerN)/nJobs, "count", "per job, Pre/Post on mpi.CommMarker")
	b.note("core.marker_s", hooks.marker.Seconds()/nJobs, "s", "per job, summed over ranks")
	b.note("core.finalize_s", hooks.finalizeT.Seconds()/nJobs, "s", "per job, summed over ranks")
	b.note("mpi.untraced_s", secs(untraced.wall), "s", "same spec, no hooks")
	for _, l := range []string{"sig", "tracer", "trace", "core", "cluster", "mpi", "fleet", "other", "runtime"} {
		b.note("cpu."+l+"_share", shares[l], "ratio", "")
	}
	b.note("gc.alloc_bytes_per_event", float64(timed.AllocBytes)/float64(jobs)/events, "B", "timed jobs")
	b.note("gc.allocs_per_event", float64(timed.AllocObjs)/float64(jobs)/events, "count", "timed jobs")
	b.note("gc.cycles", float64(timed.GCCycles), "count", fmt.Sprintf("over %d timed jobs", jobs))
	b.note("trace.encode_s", enc, "s", "WriteBinary of the merged trace")
	b.note("trace.decode_s", dec, "s", "ReadAny of the merged trace")
	if fleet {
		inproc := median(inprocWalls)
		frames := float64(tcp.FramesOut)
		b.note("tcp.frames", frames, "count", "per job")
		b.note("tcp.bytes", float64(tcp.BytesOut), "B", "per job")
		b.note("tcp.bound_sweeps", float64(tcp.BoundSweeps), "count", "per job")
		b.note("mpi.inproc_s", inproc, "s", "same spec in process (set-up reference)")
		b.note("tcp.us_per_frame", (jobWall-inproc)*1e6/frames, "us", "(fleet wall - in-process wall) / frames")
	}
	b.note("traced.peak_heap_mb", traced.PeakHeapMiB, "MiB", "")
	b.profile = profPath
	return nil
}

// checkSame compares a job's merged trace and virtual makespan with the
// reference.
func checkSame(o *op, kind string, ref, got *jobOut) {
	o.check(kind+".trace_sha256", got.sum == ref.sum, "%x != %x", got.sum[:6], ref.sum[:6])
	o.check(kind+".makespan", got.makespan == ref.makespan, "%v != %v", got.makespan, ref.makespan)
}

// codecTimes is the median of five WriteBinary / ReadAny passes over
// the merged trace.
func codecTimes(f *trace.File, bin []byte) (enc, dec float64) {
	var es, ds []float64
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		start := time.Now()
		if err := f.WriteBinary(&buf); err != nil {
			return 0, 0
		}
		es = append(es, secs(time.Since(start)))
		start = time.Now()
		if _, err := trace.ReadAny(bytes.NewReader(bin)); err != nil {
			return 0, 0
		}
		ds = append(ds, secs(time.Since(start)))
	}
	return median(es), median(ds)
}

// setCPUShares puts every layer's CPU share on the result line.
func setCPUShares(b *bench, shares map[string]float64) {
	for _, l := range append(append([]string(nil), layers...), "other", "runtime") {
		b.setLayer("cpu."+l+"_share", shares[l], "ratio")
	}
}
