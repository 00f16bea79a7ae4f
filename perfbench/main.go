// Command perfbench is the repository's benchmark: one program that
// runs every workload, checks every operation's output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer breakdown) as a
// single JSON line. See BENCHMARK.md for the workloads, the metrics and
// the layer → end-to-end → workload mapping.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload trace-lu --seed 1 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is one line of the human-readable report: every end-to-end
// and per-layer figure a workload measures, under the names BENCHMARK.md
// documents, including those the result line does not carry.
type detail struct {
	Name  string
	Value float64 // NaN: does not apply to the workload
	Unit  string
	Note  string
}

// checker counts checked operations. An operation fails when any of its
// checks fails; fail_share is failed ÷ attempted.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	names     map[string]int // check name -> times evaluated
	fails     map[string]int // check name -> times failed
	first     []string       // first few failure messages
}

func newChecker() *checker {
	return &checker{names: map[string]int{}, fails: map[string]int{}}
}

// op is one checked operation in progress.
type op struct {
	c  *checker
	ok bool
}

func (c *checker) begin() *op { return &op{c: c, ok: true} }

// check records one named check of the operation.
func (o *op) check(name string, ok bool, format string, args ...any) bool {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	o.c.names[name]++
	if !ok {
		o.ok = false
		o.c.fails[name]++
		if len(o.c.first) < 8 {
			o.c.first = append(o.c.first, name+": "+fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// done closes the operation, counting it once.
func (o *op) done() {
	o.c.mu.Lock()
	defer o.c.mu.Unlock()
	o.c.attempted++
	if !o.ok {
		o.c.failed++
	}
}

func (c *checker) failShare() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

// checkNames lists the distinct checks evaluated, sorted.
func (c *checker) checkNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.names))
	for n := range c.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench is one invocation: a workload at a seed, timed or traced.
type bench struct {
	workload string
	seed     uint64
	dur      time.Duration
	traced   bool
	tiny     bool
	rate     float64 // archive-mesh offered rate override (calibration)
	outDir   string  // artifacts (CPU profile, per-layer JSON)
	tmpDir   string  // scratch archives; removed on exit
	profile  string  // CPU profile of the traced phase

	chk     *checker
	e2e     map[string]metric
	layer   map[string]metric
	details []detail
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{Value: v, Unit: unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{Value: v, Unit: unit}
}

// note adds a report line.
func (b *bench) note(name string, v float64, unit, note string) {
	b.details = append(b.details, detail{Name: name, Value: v, Unit: unit, Note: note})
}

// na adds a report line for a metric that does not apply.
func (b *bench) na(names ...string) {
	for _, n := range names {
		b.details = append(b.details, detail{Name: n, Value: math.NaN(), Note: "n/a on " + b.workload})
	}
}

// workloads maps each name to its runner. trace-emf runs on demand but
// is not listed in BENCHMARK.json: see BENCHMARK.md.
var workloads = map[string]func(*bench) error{
	"trace-lu":     runJobs,
	"trace-emf":    runJobs,
	"fleet-bt":     runJobs,
	"archive-mesh": runArchive,
}

// endToEnd and perLayer are the result-line metric names, in the order
// BENCHMARK.json lists them. Every workload reports every one.
var (
	endToEnd = []string{"setup_s", "op_p50_ms", "cpu_ms_per_op", "peak_heap_mb"}
	perLayer = []string{
		"cpu.sig_share", "cpu.tracer_share", "cpu.trace_share", "cpu.core_share",
		"cpu.cluster_share", "cpu.mpi_share", "cpu.fleet_share", "cpu.store_share",
		"cpu.mesh_share", "cpu.cq_share", "cpu.zan_share", "cpu.analysis_share",
		"cpu.wave_share", "cpu.obs_share", "cpu.other_share", "cpu.runtime_share",
		"gc.alloc_bytes_per_op", "gc.allocs_per_op", "gc.cycles",
		"bench.trace_overhead_share",
		"tracer.record_calls", "core.marker_calls", "tcp.frames", "tcp.bytes",
		"tcp.bound_sweeps", "mesh.forwarded_per_op", "archive.runs_end",
	}
)

//go:embed BASELINE.json
var baselineJSON []byte

// baseline is the committed per-workload median of each result-line
// metric at the commit that introduced the benchmark.
func baseline() map[string]map[string]float64 {
	var b struct {
		Workloads map[string]map[string]float64 `json:"workloads"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return nil
	}
	return b.Workloads
}

func main() {
	workload := flag.String("workload", "", "workload: trace-lu, archive-mesh, fleet-bt or trace-emf")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	tiny := flag.Bool("tiny", false, "tiny inputs (smoke test)")
	rate := flag.Float64("rate", 0, "archive-mesh: offered ops/s instead of the calibrated rate (a rate above capacity measures the closed-loop capacity)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	b := newBench(*workload, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1,
		filepath.Join(".bench_build", "perfbench"))
	b.tiny, b.rate = *tiny, *rate
	if err := b.run(run); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		os.Exit(1)
	}
	if err := b.emit(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func newBench(workload string, seed uint64, dur time.Duration, traced bool, outDir string) *bench {
	return &bench{
		workload: workload, seed: seed, dur: dur, traced: traced, outDir: outDir,
		chk: newChecker(), e2e: map[string]metric{}, layer: map[string]metric{},
	}
}

// run executes the workload with a scratch directory for archives that
// is removed afterwards.
func (b *bench) run(workload func(*bench) error) error {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(b.outDir, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	b.tmpDir = tmp
	return workload(b)
}

// emit prints the report, writes it beside the artifacts, and prints
// the result line last.
func (b *bench) emit(w io.Writer) error {
	names := endToEnd
	vals := b.e2e
	if b.traced {
		names, vals = perLayer, b.layer
	}
	out := map[string]metric{}
	for _, n := range names {
		m, ok := vals[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", b.workload, n)
		}
		out[n] = m
	}
	base := baseline()[b.workload]
	mode := "timed"
	if b.traced {
		mode = "traced"
	}
	b.chk.mu.Lock()
	attempted, failed := b.chk.attempted, b.chk.failed
	b.chk.mu.Unlock()
	b.note("fail_share", b.chk.failShare(), "ratio", fmt.Sprintf("%d of %d operations failed a check", failed, attempted))
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f %s run\n", b.workload, b.seed, b.dur.Seconds(), mode)
	for _, d := range b.details {
		if math.IsNaN(d.Value) {
			fmt.Fprintf(w, "  %-32s %14s  %s\n", d.Name, "n/a", d.Note)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s %s\n", d.Name, d.Value, d.Unit, d.Note)
	}
	fmt.Fprintln(w, "  result line (baseline: BASELINE.json):")
	for _, n := range names {
		line := fmt.Sprintf("    %-30s %14.6g %-6s", n, out[n].Value, out[n].Unit)
		if bv, ok := base[n]; ok {
			line += fmt.Sprintf(" baseline %.6g", bv)
		}
		fmt.Fprintln(w, line)
	}
	names2 := b.chk.checkNames()
	fmt.Fprintf(w, "  checks: %s\n", strings.Join(names2, ", "))
	for _, f := range b.chk.first {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}

	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, out}

	// The full report (NaN-free: n/a lines carry a note only).
	type jsonDetail struct {
		Name  string   `json:"name"`
		Value *float64 `json:"value,omitempty"`
		Unit  string   `json:"unit,omitempty"`
		Note  string   `json:"note,omitempty"`
	}
	var ds []jsonDetail
	for _, d := range b.details {
		jd := jsonDetail{Name: d.Name, Unit: d.Unit, Note: d.Note}
		if !math.IsNaN(d.Value) {
			v := d.Value
			jd.Value = &v
		}
		ds = append(ds, jd)
	}
	full, err := json.MarshalIndent(map[string]any{
		"workload": b.workload, "seed": b.seed, "mode": mode,
		"result": res, "report": ds, "checks": names2, "cpu_profile": b.profile,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("%s-%s.json", b.workload, mode))
	if err := os.WriteFile(path, full, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "  report: %s\n", path)
	if b.profile != "" {
		fmt.Fprintf(w, "  cpu profile: %s\n", b.profile)
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
