package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

// TestDeclaredMetrics keeps the program's result-line names in step
// with BENCHMARK.json.
func TestDeclaredMetrics(t *testing.T) {
	e2e, layer := declared(t)
	for _, c := range []struct {
		names []string
		decl  map[string]string
	}{{endToEnd, e2e}, {perLayer, layer}} {
		if len(c.names) != len(c.decl) {
			t.Errorf("program emits %d metrics, BENCHMARK.json declares %d", len(c.names), len(c.decl))
		}
		for _, n := range c.names {
			if _, ok := c.decl[n]; !ok {
				t.Errorf("metric %s is not declared in BENCHMARK.json", n)
			}
		}
	}
}

// TestTinyWorkloads runs every workload on tiny inputs, timed and
// traced, at two seeds: every result-line metric must be emitted with
// its unit, every check must pass, and both seeds must run the same
// checks. trace-emf is the exception for its makespan and trace checks:
// AnySource matching is not yet deterministic (ROADMAP item 1), so
// those may fail; the test requires that they ran on every job and that
// nothing else failed.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layer := declared(t)
	for _, name := range []string{"trace-lu", "fleet-bt", "archive-mesh", "trace-emf"} {
		for _, traced := range []bool{false, true} {
			var checks [][]string
			for _, seed := range []uint64{1, 2} {
				b := newBench(name, seed, time.Second, traced, t.TempDir())
				b.tiny = true
				if err := b.run(workloads[name]); err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				if err := b.emit(io.Discard); err != nil {
					t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
				}
				decl, vals := e2e, b.e2e
				if traced {
					decl, vals = layer, b.layer
				}
				for n, unit := range decl {
					if m, ok := vals[n]; !ok || m.Unit != unit {
						t.Errorf("%s traced=%v: metric %s missing or not in %s", name, traced, n, unit)
					}
				}
				if b.chk.attempted == 0 {
					t.Errorf("%s seed %d traced=%v: no operation attempted", name, seed, traced)
				}
				for check, n := range b.chk.fails {
					if name == "trace-emf" && emfDivergence[check] {
						t.Logf("%s seed %d traced=%v: %s failed %d of %d times (known defect)",
							name, seed, traced, check, n, b.chk.names[check])
						continue
					}
					t.Errorf("%s seed %d traced=%v: %s failed %d times: %v", name, seed, traced, check, n, b.chk.first)
				}
				checks = append(checks, b.chk.checkNames())
			}
			if !reflect.DeepEqual(checks[0], checks[1]) {
				t.Errorf("%s traced=%v: seeds ran different checks: %v vs %v", name, traced, checks[0], checks[1])
			}
		}
	}
}

// emfDivergence are the checks the AnySource determinism defect fails.
var emfDivergence = map[string]bool{
	"setup.makespan": true, "setup.trace_sha256": true,
	"job.makespan": true, "job.trace_sha256": true,
	"traced.makespan": true, "traced.state_calls": true,
	"traced.reclusterings": true, "traced.nodes": true,
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tl, ok := tailOf(xs)
	if !ok || tl.Pct != 90 || tl.Value != 90 {
		t.Fatalf("tail of 1..100 = %+v, want p90 = 90", tl)
	}
	if _, ok := tailOf(xs[:10]); ok {
		t.Fatal("10 samples must give no tail")
	}
}

func TestOpCycleShares(t *testing.T) {
	cycle := opCycle()
	if len(cycle) != cycleLen {
		t.Fatalf("cycle has %d slots, want %d", len(cycle), cycleLen)
	}
	count := map[string]int{}
	for _, r := range cycle {
		count[r]++
	}
	for _, o := range opMix {
		if got := float64(count[o.route]) / cycleLen; got != o.share {
			t.Errorf("%s: share %.2f, want %.2f", o.route, got, o.share)
		}
	}
	t.Log(cycle)
}
