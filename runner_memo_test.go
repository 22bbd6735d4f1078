package rispp

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// memoFrames sizes the workloads of the memo tests: long enough that
// generating the trace dwarfs building a runtime and a Result.
const memoFrames = 32

// allocBytes returns the bytes the heap handed out while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// traceBytes is what generating the memo tests' trace allocates once, and
// what generating and compiling it allocates.
func traceBytes(t *testing.T) (gen, genCompile uint64) {
	t.Helper()
	is := isa.H264()
	var tr *workload.Trace
	gen = allocBytes(func() { tr = workload.H264(workload.H264Config{Frames: memoFrames}) })
	compile := allocBytes(func() {
		if _, err := workload.Compile(tr, is); err != nil {
			t.Fatal(err)
		}
	})
	return gen, gen + compile
}

// TestPoolMissSeedsFromCompiledTrace: on a warm compile memo, a point whose
// runtime is not pooled yet seeds its forecasts from the memoized trace
// instead of generating the trace again.
func TestPoolMissSeedsFromCompiledTrace(t *testing.T) {
	rn := NewRunner(Config{})
	res := new(sim.Result)
	warm := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: memoFrames, SeedForecasts: true}
	if err := rn.RunPoint(context.Background(), warm, sim.Options{}, res); err != nil {
		t.Fatal(err)
	}
	gen, _ := traceBytes(t)
	miss := explore.Point{Scheduler: "ASF", NumACs: 12, Frames: memoFrames, SeedForecasts: true}
	got := allocBytes(func() {
		if err := rn.RunPoint(context.Background(), miss, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
	})
	if hits, misses := rn.RuntimePoolStats(); hits != 0 || misses != 2 {
		t.Fatalf("pool stats: hits=%d misses=%d, want 0/2", hits, misses)
	}
	if got*10 >= gen {
		t.Errorf("pool-miss RunPoint on a warm memo allocated %d bytes, want < 1/10 of generating the trace (%d)", got, gen)
	}
}

// TestCompileMemoSingleFlight: concurrent first requests for one workload
// key generate and compile its trace once between them.
func TestCompileMemoSingleFlight(t *testing.T) {
	_, once := traceBytes(t)
	rn := NewRunner(Config{})
	var pts []explore.Point
	for _, acs := range []int{5, 10} {
		for _, s := range sched.Names {
			pts = append(pts, explore.Point{Scheduler: s, NumACs: acs, Frames: memoFrames, SeedForecasts: true})
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, len(pts))
	for _, p := range pts {
		wg.Add(1)
		go func(p explore.Point) {
			defer wg.Done()
			<-start
			if err := rn.RunPoint(context.Background(), p, sim.Options{}, new(sim.Result)); err != nil {
				errs <- err
			}
		}(p)
	}
	got := allocBytes(func() {
		close(start)
		wg.Wait()
	})
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got*2 >= once*3 {
		t.Errorf("%d concurrent cold points allocated %d bytes, want < 1.5× one generate+compile (%d)", len(pts), got, once)
	}
}
