package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// hookTimes accumulates the time the simulator spends inside the
// run-time system's hooks: forecast, Molecule selection and SI scheduling
// on hot-spot entry, monitor settlement on exit, and the reconfiguration
// port's Atom-load completions (Advance). Record, Latency and the port's
// NextEvent poll are only counted: each is called per burst, costs a few
// nanoseconds, below what the clock resolves, and timing them would cost
// more than they do; their time stays in the event loop's own.
type hookTimes struct {
	enter, leave, advance                            time.Duration
	enters, leaves, loads, polls, records, latencies int64
	// clock is what one timed call of a no-op records: the cost of the
	// clock reads themselves, subtracted from every timed call.
	clock time.Duration
}

func newHookTimes() *hookTimes {
	const n = 1 << 16
	var sum time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		sum += time.Since(s)
	}
	return &hookTimes{clock: sum / n}
}

func (h *hookTimes) enterTime() time.Duration { return h.enter - time.Duration(h.enters)*h.clock }
func (h *hookTimes) leaveTime() time.Duration { return h.leave - time.Duration(h.leaves)*h.clock }

func (h *hookTimes) eventTime() time.Duration { return h.advance - time.Duration(h.loads)*h.clock }

func (h *hookTimes) total() time.Duration { return h.enterTime() + h.leaveTime() + h.eventTime() }

// timedRuntime is the timing decorator around a sim.Runtime. It is used
// by one goroutine at a time.
type timedRuntime struct {
	sim.Runtime
	t *hookTimes
}

func (r timedRuntime) EnterHotSpot(h isa.HotSpotID, now int64) {
	s := time.Now()
	r.Runtime.EnterHotSpot(h, now)
	r.t.enter += time.Since(s)
	r.t.enters++
}

func (r timedRuntime) LeaveHotSpot(now int64) {
	s := time.Now()
	r.Runtime.LeaveHotSpot(now)
	r.t.leave += time.Since(s)
	r.t.leaves++
}

func (r timedRuntime) NextEvent() (int64, bool) {
	r.t.polls++
	return r.Runtime.NextEvent()
}

func (r timedRuntime) Advance(t int64) {
	s := time.Now()
	r.Runtime.Advance(t)
	r.t.advance += time.Since(s)
	r.t.loads++
}

func (r timedRuntime) Record(si isa.SIID, n, now int64) {
	r.t.records++
	r.Runtime.Record(si, n, now)
}

func (r timedRuntime) Latency(si isa.SIID) int {
	r.t.latencies++
	return r.Runtime.Latency(si)
}

// workKey identifies one generated workload trace.
type workKey struct {
	scenario string
	frames   int
	seed     int64
	motion   float64
	scene    int
}

func workOf(p explore.Point) workKey {
	return workKey{p.Scenario, p.Frames, p.Seed, p.Motion, p.SceneChange}
}

// work is a generated and compiled workload with the ISA it runs under.
type work struct {
	tr *workload.Trace
	ct *workload.Compiled
	is *isa.ISA
}

// lowerRunner runs design points one layer below rispp.Runner, calling
// the layers' public functions directly: trace generation
// (workload.H264 or a scenario), workload.Compile, runtime construction
// (rispp.NewRuntime with forecast seeding) and the event loop
// (sim.RunCompiled). It generates each workload's trace once and builds a
// fresh runtime for every point, but keeps none of the Runner's
// bookkeeping (memo, runtime pool, trails), so Runner time minus
// lowerRunner time is the Runner's own. It also serves as the correctness
// reference. Not safe for concurrent use.
type lowerRunner struct {
	h264  *isa.ISA
	works map[workKey]*work
	hooks *hookTimes // non-nil: runtimes are wrapped in timedRuntime

	gen, compile, acquire, loop time.Duration
	genCalls, compileCalls      int64
}

func newLowerRunner(traced bool) *lowerRunner {
	l := &lowerRunner{
		h264:  isa.H264(),
		works: make(map[workKey]*work),
	}
	if traced {
		l.hooks = newHookTimes()
	}
	return l
}

// workFor returns the compiled workload of p, generating it on first use.
func (l *lowerRunner) workFor(p explore.Point) (*work, error) {
	k := workOf(p)
	if w, ok := l.works[k]; ok {
		return w, nil
	}
	w := &work{is: l.h264}
	start := time.Now()
	if p.Scenario != "" {
		sc, ok := scenario.Find(p.Scenario)
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q", p.Scenario)
		}
		w.is = sc.ISA()
		w.tr = sc.Trace(p.Frames, p.Seed)
	} else {
		w.tr = workload.H264(workload.H264Config{
			Frames:            p.Frames,
			Seed:              p.Seed,
			MotionVariability: p.Motion,
			SceneChangeFrame:  p.SceneChange,
		})
	}
	mid := time.Now()
	ct, err := workload.Compile(w.tr, w.is)
	end := time.Now()
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", p.Key(), err)
	}
	w.ct = ct
	l.gen += mid.Sub(start)
	l.compile += end.Sub(mid)
	l.genCalls++
	l.compileCalls++
	l.works[k] = w
	return w, nil
}

// run simulates p into res and returns the workload it ran.
func (l *lowerRunner) run(ctx context.Context, p explore.Point, res *sim.Result) (*work, error) {
	w, err := l.workFor(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rt, err := rispp.NewRuntime(rispp.Config{
		ISA:           w.is,
		Workload:      w.tr,
		Scheduler:     p.Scheduler,
		NumACs:        p.NumACs,
		SeedForecasts: p.SeedForecasts,
		Prefetch:      p.Prefetch,
	})
	l.acquire += time.Since(start)
	if err != nil {
		return nil, err
	}
	if l.hooks != nil {
		rt = timedRuntime{rt, l.hooks}
	}
	start = time.Now()
	err = sim.RunCompiled(ctx, w.ct, rt, sim.Options{}, res)
	l.loop += time.Since(start)
	return w, err
}

// check runs p on the reference path, validates the result with the
// oracle's invariants, and returns its metrics.
func (l *lowerRunner) check(ctx context.Context, p explore.Point) (explore.Metrics, error) {
	var res sim.Result
	w, err := l.run(ctx, p, &res)
	if err != nil {
		return explore.Metrics{}, err
	}
	if err := oracle.Check(w.tr, w.is, &res); err != nil {
		return explore.Metrics{}, fmt.Errorf("%s: %w", p.Key(), err)
	}
	return metricsOf(&res), nil
}

func metricsOf(res *sim.Result) explore.Metrics {
	return explore.Metrics{
		TotalCycles:  res.TotalCycles,
		StallCycles:  res.StallCycles,
		SWExecutions: res.TotalSWExecutions(),
		HWExecutions: res.TotalHWExecutions(),
	}
}

// putLayers stores the layer metrics of one point sequence run on a plain
// lowerRunner and again on a decorated one. Times come from the plain
// pass, so the decorator's own cost stays out of them; the decorated pass
// only apportions the event loop between its own code and the hooks.
func putLayers(vals map[string]float64, plain, traced *lowerRunner) {
	vals["workload.gen_ms"] = ms(plain.gen)
	vals["workload.gen_calls"] = float64(plain.genCalls)
	vals["workload.compile_ms"] = ms(plain.compile)
	vals["workload.compile_calls"] = float64(plain.compileCalls)
	vals["rispp.acquire_ms"] = ms(plain.acquire)
	h := traced.hooks
	vals["sim.loop_self_ms"] = ms(plain.loop - h.total())
	vals["core.enter_ms"] = ms(h.enterTime())
	vals["core.enter_calls"] = float64(h.enters)
	vals["core.leave_ms"] = ms(h.leaveTime())
	vals["core.event_ms"] = ms(h.eventTime())
	vals["core.atom_loads"] = float64(h.loads)
	vals["core.event_polls"] = float64(h.polls)
	vals["core.record_calls"] = float64(h.records)
	vals["core.latency_calls"] = float64(h.latencies)
}

// tracedReps is how many times a traced run repeats its passes, taking
// them in turn; each pass keeps its fastest repetition, so that a drift of
// the machine's speed during the run does not land on one layer alone.
const tracedReps = 3

// fastest keeps the value of the fastest of several repetitions of a pass.
type fastest[T any] struct {
	v    T
	wall time.Duration
	ok   bool
}

func (f *fastest[T]) offer(v T, wall time.Duration) {
	if !f.ok || wall < f.wall {
		f.v, f.wall, f.ok = v, wall, true
	}
}

// lowerBest keeps the fastest plain and the fastest decorated lower pass.
type lowerBest [2]fastest[*lowerRunner]

func (b *lowerBest) offer(ls [2]*lowerRunner, walls [2]time.Duration) {
	b[0].offer(ls[0], walls[0])
	b[1].offer(ls[1], walls[1])
}

// put stores the layer metrics and the tracing overhead of the fastest
// passes.
func (b *lowerBest) put(vals map[string]float64) {
	putLayers(vals, b[0].v, b[1].v)
	vals["trace.overhead_pct"] = 100 * (b[1].wall.Seconds() - b[0].wall.Seconds()) / b[0].wall.Seconds()
}

// lowerPasses runs the points through a plain and then a decorated
// lowerRunner and returns both with their passes' wall times.
func lowerPasses(points []explore.Point) ([2]*lowerRunner, [2]time.Duration, error) {
	var walls [2]time.Duration
	var ls [2]*lowerRunner
	var res sim.Result
	for i, traced := range []bool{false, true} {
		ls[i] = newLowerRunner(traced)
		runtime.GC()
		start := time.Now()
		for _, pt := range points {
			if _, err := ls[i].run(context.Background(), pt, &res); err != nil {
				return ls, walls, fmt.Errorf("lower pass %s: %w", pt.Key(), err)
			}
		}
		walls[i] = time.Since(start)
	}
	return ls, walls, nil
}

// spans is the total time of the lowerRunner's timed calls.
func (l *lowerRunner) spans() time.Duration {
	return l.gen + l.compile + l.acquire + l.loop
}
