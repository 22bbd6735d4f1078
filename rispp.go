// Package rispp is the public API of the RISPP run-time-system library: a
// reproduction of "Run-time System for an Extensible Embedded Processor
// with Dynamic Instruction Set" (Bauer, Shafique, Kreutz, Henkel — DATE
// 2008).
//
// A RISPP processor executes Special Instructions (SIs) that are composed
// at run time from reconfigurable data paths (Atoms) loaded into Atom
// Containers. The library bundles the formal Molecule model, the H.264
// dynamic instruction set of the paper's Table 1, the online monitor, the
// Molecule selection, the Special Instruction Scheduler (FSFR, ASF, SJF and
// the paper's HEF), a Molen-like baseline, and a cycle-level simulator.
//
// Quick start:
//
//	res, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 10})
//	if err != nil { ... }
//	fmt.Println(res.TotalCycles)
//
// See examples/ for complete programs and bench_test.go for the harness
// regenerating every table and figure of the paper.
package rispp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rispp/internal/bitstream"
	"rispp/internal/core"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/membus"
	"rispp/internal/molen"
	"rispp/internal/oracle"
	"rispp/internal/reconfig"
	"rispp/internal/scenario"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// Schedulers lists the SI-Scheduler names accepted by Config.Scheduler, in
// the paper's order. Additionally, Config.Scheduler accepts "Molen" (the
// baseline reconfigurable system) and "software" (plain base processor).
var Schedulers = sched.Names

// Config describes one simulated system + workload combination.
type Config struct {
	// ISA is the dynamic instruction set; nil selects the paper's H.264
	// encoder ISA (Table 1).
	ISA *isa.ISA
	// Workload is the trace to execute; nil selects the paper's 140-frame
	// CIF H.264 encode.
	Workload *workload.Trace
	// Scheduler selects the run-time system: one of Schedulers for RISPP
	// ("HEF" if empty), "Molen" for the baseline, or "software".
	Scheduler string
	// NumACs is the number of Atom Containers (ignored for "software").
	NumACs int

	// SeedForecasts, when true, seeds the execution-count forecasts from
	// the first occurrence of each hot spot in the trace — the design-time
	// estimation of the paper's toolchain. Almost always desirable.
	SeedForecasts bool
	// Eviction selects the Atom Container eviction policy (RISPP only).
	Eviction reconfig.EvictionPolicy
	// MonitorShift sets the forecast smoothing α = 2^-shift.
	MonitorShift uint
	// Timing overrides the reconfiguration timing calibration (zero value:
	// 100 MHz clock, avg Atom reload 874.03 µs).
	Timing reconfig.Timing
	// ExhaustiveSelection switches RISPP to the exponential reference
	// Molecule selection (ablation; small SI sets per hot spot only).
	ExhaustiveSelection bool
	// Bitstreams optionally drives the reconfiguration port from generated
	// partial-bitstream images (see internal/bitstream).
	Bitstreams *bitstream.Repository
	// Prefetch enables reconfiguration prefetching for the predicted next
	// hot spot while the port would otherwise idle (extension, RISPP only).
	Prefetch bool
	// Bus, when non-nil, models contention on the shared memory bus: Atom
	// reload times stretch by the DMA's squeezed share and the trace's glue
	// cycles by the core's slowdown (see internal/membus).
	Bus *membus.Config

	// Collect controls measurement artifacts (histograms, timelines, the
	// event journal).
	Collect sim.Options
}

func (c *Config) setDefaults() {
	if c.ISA == nil {
		c.ISA = isa.H264()
	}
	if c.Workload == nil {
		c.Workload = workload.H264(workload.H264Config{})
	}
	if c.Scheduler == "" {
		c.Scheduler = "HEF"
	}
	if c.Bus != nil {
		if c.Timing == (reconfig.Timing{}) {
			c.Timing = reconfig.DefaultTiming()
		}
		c.Timing = c.Bus.Timing(c.Timing)
		c.Workload = c.Bus.ApplyToTrace(c.Workload)
		c.Bus = nil // applied
	}
}

// NewRuntime builds the runtime described by the config without running it;
// useful for custom simulation loops.
func NewRuntime(cfg Config) (sim.Runtime, error) {
	cfg.setDefaults()
	switch cfg.Scheduler {
	case "software":
		return sim.Software(cfg.ISA), nil
	case "Molen", "molen":
		rt := molen.New(molen.Config{
			ISA:          cfg.ISA,
			NumACs:       cfg.NumACs,
			Timing:       cfg.Timing,
			MonitorShift: cfg.MonitorShift,
		})
		if cfg.SeedForecasts {
			rt.SeedFromTrace(cfg.Workload)
		}
		return rt, nil
	default:
		s, err := sched.New(cfg.Scheduler)
		if err != nil {
			return nil, fmt.Errorf("rispp: %w", err)
		}
		mgr := core.NewManager(core.Config{
			ISA:                 cfg.ISA,
			NumACs:              cfg.NumACs,
			Scheduler:           s,
			Timing:              cfg.Timing,
			Eviction:            cfg.Eviction,
			MonitorShift:        cfg.MonitorShift,
			ExhaustiveSelection: cfg.ExhaustiveSelection,
			Bitstreams:          cfg.Bitstreams,
			Prefetch:            cfg.Prefetch,
		})
		if cfg.SeedForecasts {
			mgr.SeedFromTrace(cfg.Workload)
		}
		return mgr, nil
	}
}

// Run simulates the configured system on the configured workload.
func Run(cfg Config) (*sim.Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation and deadline support: the simulator
// checks the context between events (Atom-load completions and phase
// boundaries), so even a billions-of-cycles run stops promptly.
func RunContext(ctx context.Context, cfg Config) (*sim.Result, error) {
	cfg.setDefaults()
	rt, err := NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	// sim.RunContext compiles the trace, which validates it against the ISA.
	return sim.RunContext(ctx, cfg.Workload, cfg.ISA, rt, cfg.Collect)
}

// SweepPoint is one cell of a scheduler × #ACs sweep.
type SweepPoint struct {
	Scheduler   string
	NumACs      int
	TotalCycles int64
}

// Runner materializes explore.Points as full simulation runs over a base
// Config, sharing per-run scratch across calls: traces are compiled once
// per distinct workload-knob combination (the compiled form is immutable
// and race-free to share) and sim.Result buffers are recycled through a
// sync.Pool, so a steady stream of points re-pays neither trace lowering
// nor result allocation per run. A Runner is safe for concurrent use; both
// the exploration engine (Explorer) and the HTTP serving layer
// (internal/serve) run their points through one.
//
// When base.Workload is nil, the point's workload knobs (frames, seed,
// motion variability, scene change) build the H.264 trace — or, when the
// point names a scenario, the scenario generator of internal/scenario
// builds the trace and the run executes under that scenario's (possibly
// merged multi-app) ISA. A non-nil base.Workload is used verbatim for
// every point and excludes scenario points — in that case do not share an
// explore.Cache across different traces, since the point key only
// describes the knobs.
// Runtimes are pooled too: runtime construction allocates the full arena
// set (monitor tables, Atom Container array, scheduler scratch), while a
// reused runtime is Reset in place by the simulator and re-runs without
// allocating. The pool is keyed by everything that distinguishes one
// runtime build from another under a fixed base config — scheduler, #ACs,
// forecast seeding, prefetching, and the workload knobs (forecast seeds
// derive from the trace).
//
// Every call takes one path: compile memo → runtime pool →
// sim.RunCompiled, or for RunPointSet the grouped sim.RunCompiledSet walk.
// A Runner never answers a point without simulating it; reusing whole
// results is the job of the explore result cache and the serving layer's
// response cache.
type Runner struct {
	base     Config
	memo     bool      // trace memo + runtime pool are sound (no Bus rewrite)
	results  sync.Pool // *sim.Result, reused across runs
	compiled sync.Map  // workKey → *workload.Compiled

	runtimes             sync.Map // runtimeKey → *runtimePool
	poolHits, poolMisses atomic.Int64
}

// workKey identifies a distinct workload under a fixed base config: which
// generator produced the trace (the H.264 generator when scenario is
// empty, the named scenario of internal/scenario otherwise) and the knobs
// it ran with. Scenario traces use only the Frames and Seed knobs; the
// H.264-only knobs stay zero in their keys.
type workKey struct {
	scenario string
	knobs    workload.H264Config
}

// runtimePool is a per-key free list of idle runtimes. Unlike sync.Pool it
// holds strong references: a runtime arena is a deliberate, bounded cache
// (the list can never exceed the peak number of concurrent runs per key),
// and dropping it on every GC — which the construction garbage of the
// resulting misses itself triggers — would defeat the cache exactly when
// it is needed.
type runtimePool struct {
	mu   sync.Mutex
	free []sim.Runtime
}

// maxPooledPerKey bounds each free list as a safety net; in practice the
// list size equals the peak concurrency on the key (a handful).
const maxPooledPerKey = 32

func (p *runtimePool) get() (sim.Runtime, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		rt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return rt, true
	}
	return nil, false
}

func (p *runtimePool) put(rt sim.Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < maxPooledPerKey {
		p.free = append(p.free, rt)
	}
}

// runtimeKey identifies a pool of interchangeable runtimes: two builds with
// equal keys (under one Runner, whose remaining config fields are fixed)
// are behaviorally identical after Reset.
type runtimeKey struct {
	scheduler     string
	numACs        int
	seedForecasts bool
	prefetch      bool
	work          workKey
}

// NewRunner builds a Runner over the base config. Trace memoization and the
// runtime pool are disabled when base.Bus is set, because the Bus transform
// rewrites the trace after the workload knobs are applied — equal knobs
// would no longer imply an equal compiled trace (or equal forecast seeds)
// per config. The default ISA is resolved once here: building the H.264
// Molecule library per point would dwarf a pooled run's cost.
func NewRunner(base Config) *Runner {
	if base.ISA == nil {
		base.ISA = isa.H264()
	}
	return &Runner{base: base, memo: base.Bus == nil}
}

// RuntimePoolStats reports how often a RunPoint/RunPointSet runtime request
// was served from the pool (hit) versus built fresh (miss). Every simulated
// point makes exactly one request, so hits+misses counts the points run.
// With the pool disabled (base.Bus set) every request counts as a miss.
func (r *Runner) RuntimePoolStats() (hits, misses int64) {
	return r.poolHits.Load(), r.poolMisses.Load()
}

// DeltaStats always reports zero serves, resumes and records: every point
// simulates through the compile memo and the runtime pool.
//
// Deprecated: the delta-resimulation layer these counters described no
// longer exists.
func (r *Runner) DeltaStats() (serves, resumes, records int64) { return 0, 0, 0 }

// runtime returns a runtime for cfg (whose workload key is work), pooled
// when sound. A non-nil pool must be handed back via putRuntime once the run
// completes — even a failed run, since Reset restores power-on state
// regardless.
func (r *Runner) runtime(cfg *Config, work workKey) (sim.Runtime, *runtimePool, error) {
	if !r.memo {
		r.poolMisses.Add(1)
		rt, err := NewRuntime(*cfg)
		return rt, nil, err
	}
	key := runtimeKey{
		scheduler:     cfg.Scheduler,
		numACs:        cfg.NumACs,
		seedForecasts: cfg.SeedForecasts,
		prefetch:      cfg.Prefetch,
		work:          work,
	}
	v, ok := r.runtimes.Load(key)
	if !ok {
		v, _ = r.runtimes.LoadOrStore(key, new(runtimePool))
	}
	pool := v.(*runtimePool)
	if rt, ok := pool.get(); ok {
		r.poolHits.Add(1)
		return rt, pool, nil
	}
	r.poolMisses.Add(1)
	materializeWorkload(cfg, work) // forecast seeding reads the trace
	rt, err := NewRuntime(*cfg)
	if err != nil {
		return nil, nil, err
	}
	return rt, pool, nil
}

func (r *Runner) putRuntime(pool *runtimePool, rt sim.Runtime) {
	if pool != nil {
		pool.put(rt)
	}
}

// pointConfig materializes point p over the base config and returns it with
// the workload memo key (zeroed when the base pins a shared trace). When
// memoization is on, cfg.Workload is left nil for generator-driven traces:
// generating the trace is only necessary on a memo or runtime-pool miss,
// and materializeWorkload fills it in exactly there. The steady state —
// warm memo, warm pool — therefore touches neither the ISA builder nor the
// trace generator.
//
// A point naming a scenario swaps in that scenario's ISA (the merged
// instruction set of a multi-app scenario is a different Atom space than
// the base ISA) and uses only the Frames and Seed knobs; it is rejected
// when the base pins a workload or an unknown scenario is named.
func (r *Runner) pointConfig(p explore.Point, collect sim.Options) (Config, workKey, error) {
	cfg := r.base // base.ISA is pre-resolved by NewRunner
	cfg.Scheduler = p.Scheduler
	cfg.NumACs = p.NumACs
	cfg.SeedForecasts = p.SeedForecasts
	cfg.Prefetch = p.Prefetch
	cfg.Collect = collect
	if cfg.Scheduler == "" {
		cfg.Scheduler = "HEF"
	}
	var key workKey
	switch {
	case p.Scenario != "":
		if cfg.Workload != nil {
			return cfg, key, fmt.Errorf("rispp: point %s names a scenario but the base config pins a workload", p.Key())
		}
		if p.Motion != 0 || p.SceneChange != 0 {
			return cfg, key, fmt.Errorf("rispp: point %s combines scenario %q with H.264 knobs", p.Key(), p.Scenario)
		}
		sc, ok := scenario.Find(p.Scenario)
		if !ok {
			return cfg, key, fmt.Errorf("rispp: unknown scenario %q", p.Scenario)
		}
		key = workKey{scenario: p.Scenario, knobs: workload.H264Config{Frames: p.Frames, Seed: p.Seed}}
		cfg.ISA = sc.ISA()
		if !r.memo {
			cfg.Workload = sc.Trace(p.Frames, p.Seed)
		}
	case cfg.Workload != nil:
		// Single shared trace, one memo slot: key stays zero.
	default:
		key.knobs = workload.H264Config{
			Frames:            p.Frames,
			Seed:              p.Seed,
			MotionVariability: p.Motion,
			SceneChangeFrame:  p.SceneChange,
		}
		if !r.memo {
			cfg.Workload = workload.H264(key.knobs)
		}
	}
	if cfg.Bus != nil {
		cfg.setDefaults() // applies the Bus transform to timing and trace
	}
	return cfg, key, nil
}

// materializeWorkload generates the generator-driven trace if pointConfig
// left it lazy (memo on, no pinned base workload). A scenario key always
// resolves: pointConfig already verified the name.
func materializeWorkload(cfg *Config, key workKey) {
	if cfg.Workload != nil {
		return
	}
	if key.scenario != "" {
		sc, _ := scenario.Find(key.scenario)
		cfg.Workload = sc.Trace(key.knobs.Frames, key.knobs.Seed)
		return
	}
	cfg.Workload = workload.H264(key.knobs)
}

// GetResult returns a pooled Result for RunPoint; return it with PutResult
// once its values have been read, so later runs reuse its buffers.
func (r *Runner) GetResult() *sim.Result {
	if res, ok := r.results.Get().(*sim.Result); ok {
		return res
	}
	return new(sim.Result)
}

// PutResult recycles a Result obtained from GetResult. The caller must not
// retain any reference into it afterwards.
func (r *Runner) PutResult(res *sim.Result) { r.results.Put(res) }

// compile lowers cfg's workload, memoizing per workload key when sound.
func (r *Runner) compile(cfg *Config, key workKey) (*workload.Compiled, error) {
	if r.memo {
		if v, ok := r.compiled.Load(key); ok {
			return v.(*workload.Compiled), nil
		}
	}
	materializeWorkload(cfg, key)
	ct, err := workload.Compile(cfg.Workload, cfg.ISA)
	if err != nil {
		return nil, err
	}
	if r.memo {
		if v, loaded := r.compiled.LoadOrStore(key, ct); loaded {
			ct = v.(*workload.Compiled)
		}
	}
	return ct, nil
}

// RunPoint simulates design point p into the caller-owned res (typically
// from GetResult), collecting the artifacts selected by collect. The
// runtime comes from the runtime pool (built fresh on a miss) and is
// returned to it afterwards; the compiled trace comes from the memo when
// possible. On error res holds partial state and must not be interpreted
// (it is still safe to PutResult).
func (r *Runner) RunPoint(ctx context.Context, p explore.Point, collect sim.Options, res *sim.Result) error {
	cfg, key, err := r.pointConfig(p, collect)
	if err != nil {
		return err
	}
	ct, err := r.compile(&cfg, key)
	if err != nil {
		return err
	}
	rt, pool, err := r.runtime(&cfg, key)
	if err != nil {
		return err
	}
	err = sim.RunCompiled(ctx, ct, rt, cfg.Collect, res)
	r.putRuntime(pool, rt)
	return err
}

// RunPointSet simulates several design points that share one workload in a
// single pass over the compiled trace (sim.RunCompiledSet): the trace is
// walked once and every runtime advances through it phase by phase. The
// points may differ in scheduler, #ACs, forecast seeding, and prefetching,
// but must agree on the workload knobs; results[i] receives point ps[i].
// Each result is field-exact identical to a RunPoint of the same point.
// collect must not request a journal: N interleaved event streams would be
// unusable, so sim.RunCompiledSet rejects it; journal points one at a time
// with RunPoint.
func (r *Runner) RunPointSet(ctx context.Context, ps []explore.Point, collect sim.Options, results []*sim.Result) error {
	if len(ps) != len(results) {
		return fmt.Errorf("rispp: RunPointSet got %d points but %d results", len(ps), len(results))
	}
	if len(ps) == 0 {
		return nil
	}
	rts := make([]sim.Runtime, len(ps))
	pools := make([]*runtimePool, len(ps))
	var ct *workload.Compiled
	for i, p := range ps {
		cfg, key, err := r.pointConfig(p, collect)
		if err != nil {
			return err
		}
		if i == 0 {
			if ct, err = r.compile(&cfg, key); err != nil {
				return err
			}
		} else if p0 := ps[0]; p.Frames != p0.Frames || p.Seed != p0.Seed ||
			p.Motion != p0.Motion || p.SceneChange != p0.SceneChange ||
			p.Scenario != p0.Scenario {
			return fmt.Errorf("rispp: RunPointSet points disagree on workload knobs: %s vs %s", p0.Key(), p.Key())
		}
		rt, pool, err := r.runtime(&cfg, key)
		if err != nil {
			for j := 0; j < i; j++ {
				r.putRuntime(pools[j], rts[j])
			}
			return err
		}
		rts[i], pools[i] = rt, pool
	}
	err := sim.RunCompiledSet(ctx, ct, rts, collect, results)
	for i := range rts {
		r.putRuntime(pools[i], rts[i])
	}
	return err
}

// Explorer wires the design-space exploration engine of internal/explore to
// this library: every explore.Point is materialized as a Config and
// simulated on a bounded worker pool, through a shared Runner (see Runner
// for the workload semantics and the scratch-sharing guarantees). Points
// that differ only in their scheduler are batched into a single pass over
// the shared compiled trace (Runner.RunPointSet).
func Explorer(base Config, workers int, cache *explore.Cache) *explore.Engine {
	return newEngine(base, workers, cache, false)
}

// CheckedExplorer is Explorer with every simulated point validated by the
// reference oracle (internal/oracle.Check): conservation of executions,
// phase structure, the exact cycle identity, and the software upper bound.
// A point that simulates but violates an invariant comes back as an error
// rather than a silently wrong metric — the mode adaptive search uses, so
// a guided optimizer can never exploit a simulator bug.
func CheckedExplorer(base Config, workers int, cache *explore.Cache) *explore.Engine {
	return newEngine(base, workers, cache, true)
}

// newEngine builds the engine behind Explorer and CheckedExplorer over a
// fresh Runner; check turns on the oracle validation of every result.
func newEngine(base Config, workers int, cache *explore.Cache, check bool) *explore.Engine {
	rn := NewRunner(base)
	eng := &explore.Engine{
		Workers: workers,
		Run:     rn.engineRun(check),
		RunSet:  rn.engineRunSet(check),
	}
	if cache != nil { // avoid a typed-nil Store interface
		eng.Cache = cache
	}
	return eng
}

// EngineRun adapts the Runner to the exploration engine's job signature:
// each call runs the point into a pooled Result and condenses it to
// explore.Metrics.
func (r *Runner) EngineRun() explore.RunFunc { return r.engineRun(false) }

// EngineRunSet adapts Runner.RunPointSet to the engine's batched signature:
// the points of one scheduler group run in a single pass over their shared
// compiled trace, into pooled Results condensed to explore.Metrics.
func (r *Runner) EngineRunSet() explore.RunSetFunc { return r.engineRunSet(false) }

// engineRun is EngineRun, followed by the oracle invariant checker on the
// result when check is set.
func (r *Runner) engineRun(check bool) explore.RunFunc {
	return func(ctx context.Context, p explore.Point) (explore.Metrics, error) {
		res := r.GetResult()
		defer r.PutResult(res)
		if err := r.RunPoint(ctx, p, r.base.Collect, res); err != nil {
			return explore.Metrics{}, err
		}
		if check {
			if err := r.check(p, res); err != nil {
				return explore.Metrics{}, err
			}
		}
		return metricsOf(res), nil
	}
}

// engineRunSet is EngineRunSet, followed by the oracle invariant checker on
// every result of the batch when check is set.
func (r *Runner) engineRunSet(check bool) explore.RunSetFunc {
	return func(ctx context.Context, ps []explore.Point) ([]explore.Metrics, error) {
		results := make([]*sim.Result, len(ps))
		for i := range results {
			results[i] = r.GetResult()
		}
		defer func() {
			for _, res := range results {
				r.PutResult(res)
			}
		}()
		if err := r.RunPointSet(ctx, ps, r.base.Collect, results); err != nil {
			return nil, err
		}
		ms := make([]explore.Metrics, len(ps))
		for i, res := range results {
			if check {
				if err := r.check(ps[i], res); err != nil {
					return nil, err
				}
			}
			ms[i] = metricsOf(res)
		}
		return ms, nil
	}
}

// metricsOf condenses a simulation result to the engine's metrics.
func metricsOf(res *sim.Result) explore.Metrics {
	return explore.Metrics{
		TotalCycles:  res.TotalCycles,
		StallCycles:  res.StallCycles,
		SWExecutions: res.TotalSWExecutions(),
		HWExecutions: res.TotalHWExecutions(),
	}
}

// check validates res for point p against the oracle invariants. The trace
// comes from the compile memo, so the only added cost is the oracle's
// linear walk over the result.
func (r *Runner) check(p explore.Point, res *sim.Result) error {
	cfg, key, err := r.pointConfig(p, r.base.Collect)
	if err != nil {
		return err
	}
	ct, err := r.compile(&cfg, key)
	if err != nil {
		return err
	}
	if err := oracle.Check(ct.Trace, cfg.ISA, res); err != nil {
		return fmt.Errorf("rispp: point %s: %w", p.Key(), err)
	}
	return nil
}

// Sweep runs the given schedulers over a range of Atom Container counts
// (the Figure 7 / Table 2 experiment) and returns results indexed
// [scheduler][numACs]. The points run concurrently through the exploration
// engine; the simulator is deterministic, so results are identical to a
// sequential sweep.
func Sweep(base Config, schedulers []string, acs []int) (map[string]map[int]int64, error) {
	spec := explore.Spec{
		Schedulers:    schedulers,
		ACs:           acs,
		SeedForecasts: []bool{base.SeedForecasts},
		Prefetch:      []bool{base.Prefetch},
	}
	res, err := Explorer(base, 0, nil).Execute(context.Background(), spec, nil)
	if err != nil {
		return nil, fmt.Errorf("rispp: sweep: %w", err)
	}
	if err := res.FirstErr(); err != nil {
		return nil, fmt.Errorf("rispp: sweep: %w", err)
	}
	out := make(map[string]map[int]int64, len(schedulers))
	for _, rec := range res.Records {
		if out[rec.Point.Scheduler] == nil {
			out[rec.Point.Scheduler] = make(map[int]int64, len(acs))
		}
		out[rec.Point.Scheduler][rec.Point.NumACs] = rec.TotalCycles
	}
	return out, nil
}
