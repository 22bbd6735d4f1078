// Benchmarks and equivalence tests of the sweep fast path introduced with
// the runtime pool: BenchmarkSweepResim drives a paper-grid slice (all six
// run-time systems × several AC budgets) through the grouped single-pass
// engine path, BenchmarkSweepPerPoint drives the identical grid through the
// pre-existing one-runtime-per-job path, so the two ns/op values measure
// exactly the batching + pooling win.
package rispp

import (
	"context"
	"reflect"
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
// the trace memo, the runtime pool and the batched single-pass walk, which
// simulates every point each iteration. Single worker, so ns/op is
// comparable to BenchmarkSweepPerPoint (the gap is what pooling+batching
// buy) rather than a measure of parallelism.
func BenchmarkSweepResim(b *testing.B) {
	rn := NewRunner(Config{})
	eng := &explore.Engine{Workers: 1, Run: rn.EngineRun(), RunSet: rn.EngineRunSet()}
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

// BenchmarkSweepPerPoint measures the same grid through the pre-PR path:
// no RunSet batching, and a fresh Runner per iteration so every point pays
// runtime construction and its own walk over the compiled trace. (Each
// grid point occurs once per iteration, so the fresh Runner's pool never
// hits — exactly the pre-pool behavior; the one-frame trace compile the
// fresh memo repays per iteration is noise against 24 simulations.)
func BenchmarkSweepPerPoint(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rn := NewRunner(Config{})
		eng := &explore.Engine{Workers: 1, Run: rn.EngineRun()}
		executeSweep(b, eng)
	}
}

// TestSweepGroupedMatchesPerPoint pins the tentpole's behavioral
// invisibility at the engine level: the grouped single-pass path must
// produce record-identical output to the per-point path.
func TestSweepGroupedMatchesPerPoint(t *testing.T) {
	spec := sweepSpec()
	per := NewRunner(Config{})
	perEng := &explore.Engine{Workers: 2, Run: per.EngineRun()}
	want, err := perEng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	grp := NewRunner(Config{})
	grpEng := &explore.Engine{Workers: 2, Run: grp.EngineRun(), RunSet: grp.EngineRunSet()}
	got, err := grpEng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Errorf("grouped sweep records differ from per-point records:\nwant %+v\ngot  %+v", want.Records, got.Records)
	}
}

// TestRunPointSetMatchesRunPoint checks the Runner-level contract: a batch
// run yields field-exact the same Results as point-by-point runs.
func TestRunPointSetMatchesRunPoint(t *testing.T) {
	rn := NewRunner(Config{})
	ps := []explore.Point{
		{Scheduler: "HEF", NumACs: 10, Frames: 2, SeedForecasts: true},
		{Scheduler: "FSFR", NumACs: 5, Frames: 2, SeedForecasts: true},
		{Scheduler: "Molen", NumACs: 10, Frames: 2, SeedForecasts: true},
		{Scheduler: "software", Frames: 2},
	}
	collect := sim.Options{HistogramBucket: 100_000, Timeline: true}
	want := make([]*sim.Result, len(ps))
	for i, p := range ps {
		want[i] = new(sim.Result)
		if err := rn.RunPoint(context.Background(), p, collect, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*sim.Result, len(ps))
	for i := range got {
		got[i] = new(sim.Result)
	}
	if err := rn.RunPointSet(context.Background(), ps, collect, got); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("point %s: RunPointSet result differs from RunPoint", ps[i].Key())
		}
	}
}

func TestRunPointSetRejectsMixedWorkloads(t *testing.T) {
	rn := NewRunner(Config{})
	ps := []explore.Point{
		{Scheduler: "HEF", NumACs: 10, Frames: 1},
		{Scheduler: "ASF", NumACs: 10, Frames: 2},
	}
	res := []*sim.Result{new(sim.Result), new(sim.Result)}
	if err := rn.RunPointSet(context.Background(), ps, sim.Options{}, res); err == nil {
		t.Fatal("RunPointSet accepted points with different workload knobs")
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
