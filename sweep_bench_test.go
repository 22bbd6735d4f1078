// Benchmarks and tests of the sweep fast path: BenchmarkSweepResim drives a
// paper-grid slice (all six run-time systems × several AC budgets) through
// one Runner whose compile memo and runtime pool are warm,
// BenchmarkSweepPerPoint drives the identical grid through a fresh Runner
// per iteration, so the two ns/op values measure exactly the pooling win.
package rispp

import (
	"context"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sched"
	"rispp/internal/sim"
)

// sweepSpec is a slice of the paper's Figure 7 grid: every run-time system
// (four RISPP schedulers, the Molen baseline, plain software) over four
// Atom-Container budgets on a one-frame trace. Small enough for -count=5
// baselining, large enough that per-point construction cost dominates the
// unpooled path.
func sweepSpec() explore.Spec {
	return explore.Spec{
		Schedulers:    append(append([]string{}, sched.Names...), "Molen", "software"),
		ACs:           []int{5, 10, 15, 24},
		Frames:        []int{1},
		SeedForecasts: []bool{true},
	}
}

func executeSweep(b *testing.B, eng *explore.Engine) *explore.Result {
	res, err := eng.Execute(context.Background(), sweepSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSweepResim measures the full sweep stack: one shared Runner with
// the trace memo and the runtime pool, which simulates every point each
// iteration. Single worker, so ns/op is comparable to
// BenchmarkSweepPerPoint (the gap is what pooling buys) rather than a
// measure of parallelism.
func BenchmarkSweepResim(b *testing.B) {
	rn := NewRunner(Config{})
	eng := &explore.Engine{Workers: 1, Run: rn.EngineRun()}
	executeSweep(b, eng) // warm the trace memo and the runtime pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executeSweep(b, eng)
	}
	b.StopTimer()
	hits, misses := rn.RuntimePoolStats()
	b.ReportMetric(float64(hits)/float64(hits+misses), "pool-hit-rate")
}

// BenchmarkSweepPerPoint measures the same grid through a fresh Runner per
// iteration, so every point pays runtime construction. (Each grid point
// occurs once per iteration, so the fresh Runner's pool never hits —
// exactly the pre-pool behavior; the one-frame trace compile the fresh memo
// repays per iteration is noise against 24 simulations.)
func BenchmarkSweepPerPoint(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rn := NewRunner(Config{})
		eng := &explore.Engine{Workers: 1, Run: rn.EngineRun()}
		executeSweep(b, eng)
	}
}

// TestRuntimePoolReuse pins the pool mechanics: the second identical run
// must be a hit, and a Bus-configured Runner must bypass the pool entirely.
func TestRuntimePoolReuse(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	res := rn.GetResult()
	defer rn.PutResult(res)
	for i := 0; i < 3; i++ {
		if err := rn.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := rn.RuntimePoolStats()
	if misses != 1 || hits != 2 {
		t.Errorf("pool stats after 3 identical runs: hits=%d misses=%d, want 2/1", hits, misses)
	}
}
