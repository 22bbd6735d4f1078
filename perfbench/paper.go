package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"rispp/internal/experiments"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/stats"
	"rispp/internal/workload"
)

// paperTable holds the 140 cells of the paper reproduction: Fig. 7's
// cycles (4 schedulers × 20 AC counts) and Table 2's three speedup rows
// (3 × 20).
type paperTable struct {
	Frames        int                      `json:"frames"`
	ACs           []int                    `json:"acs"`
	Fig7          map[string]map[int]int64 `json:"fig7_cycles"`
	HEFvsASF      []float64                `json:"hef_vs_asf"`
	ASFvsMolen    []float64                `json:"asf_vs_molen"`
	HEFvsMolen    []float64                `json:"hef_vs_molen"`
	AvgHEFvsMolen float64                  `json:"avg_hef_vs_molen"`
}

//go:embed golden/paper.json
var paperGoldenJSON []byte

// paperAvgSpeedup is the paper's average HEF-vs-Molen speedup (Table 2),
// printed beside the reproduction's as a fidelity line.
const paperAvgSpeedup = 1.71

func loadPaperGolden() (*paperTable, error) {
	var g paperTable
	if err := json.Unmarshal(paperGoldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/paper.json: %w", err)
	}
	return &g, nil
}

// paperFrames is the frame count the reproduction runs at.
func paperFrames(p experiments.Params) int {
	if p.Frames == 0 {
		return 140
	}
	return p.Frames
}

// reproduce runs the paper's experiment as cmd/risppbench does.
func reproduce(p experiments.Params) *paperTable {
	f := experiments.Fig7(p)
	r := experiments.Table2(p)
	return &paperTable{
		Frames: paperFrames(p), ACs: f.ACs, Fig7: f.Cycles,
		HEFvsASF: r.HEFvsASF, ASFvsMolen: r.ASFvsMolen, HEFvsMolen: r.HEFvsMolen,
		AvgHEFvsMolen: r.AvgHEFvsMolen,
	}
}

func writePaperGolden(path string) error {
	b, err := json.MarshalIndent(reproduce(experiments.Params{}), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// badFig7 counts Fig. 7 cells that differ from the golden table.
func badFig7(g *paperTable, cycles map[string]map[int]int64) int {
	bad := 0
	for _, s := range sched.Names {
		for _, n := range g.ACs {
			if cycles[s][n] != g.Fig7[s][n] {
				bad++
			}
		}
	}
	return bad
}

// badTable2 counts Table 2 cells that differ from the golden table.
func badTable2(g *paperTable, r *experiments.Table2Result) int {
	bad := 0
	rows := [][2][]float64{{g.HEFvsASF, r.HEFvsASF}, {g.ASFvsMolen, r.ASFvsMolen}, {g.HEFvsMolen, r.HEFvsMolen}}
	for _, row := range rows {
		for i := range g.ACs {
			if i >= len(row[1]) || row[0][i] != row[1][i] {
				bad++
			}
		}
	}
	return bad
}

// paperParams sizes the reproduction: the paper's (zero Params) or, for
// smoke tests, two frames at two AC counts.
func paperParams(cfg config) experiments.Params {
	if cfg.Tiny {
		return experiments.Params{Frames: 2, ACs: []int{5, 6}}
	}
	return experiments.Params{}
}

// paperGolden returns the table the reproduction must match: the stored
// golden at the paper's size, or for smoke tests a first reproduction of
// the tiny size.
func paperGolden(cfg config, p experiments.Params) (*paperTable, error) {
	if cfg.Tiny {
		return reproduce(p), nil
	}
	return loadPaperGolden()
}

// paperCold measures the paper reproduction from a cold start. Each
// iteration runs three checked operations:
//
//	cold: experiments.Fig7 — the first sweep of the 140-frame trace;
//	near: experiments.Table2 — a second sweep of the same trace, whose
//	      ASF and HEF cells repeat Fig. 7's and whose Molen cells are new;
//	warm: Fig7 + Table2 again over a result cache directory filled before
//	      the timed region (what risppbench -cache does on a re-run).
//
// The seed is ignored: this is the paper's fixed experiment.
func paperCold(cfg config) (*outcome, error) {
	p := paperParams(cfg)
	golden, err := paperGolden(cfg, p)
	if err != nil {
		return nil, err
	}
	if cfg.Trace {
		return paperTraced(p, golden)
	}
	o := &outcome{Values: make(map[string]float64)}

	frames := paperFrames(p)
	setups, _, err := repeatSetup(21, nil, func() (*workload.Compiled, error) {
		is := isa.H264()
		return workload.Compile(workload.H264(workload.H264Config{Frames: frames}), is)
	}, func(*workload.Compiled) {})
	if err != nil {
		return nil, err
	}

	dir, err := scratchDir(cfg.Root, "paper-cache")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cached := p
	cached.CacheDir = dir
	if bad := paperBad(golden, reproduce(cached)); bad > 0 {
		return nil, fmt.Errorf("priming the result cache: %d cells differ from the golden table", bad)
	}

	var s samples
	var avg float64
	heap := startHeapSampler()
	// timed runs one operation from a collected heap, as in a fresh
	// process, so that one operation's garbage does not tax the next.
	timed := func(class string, op func()) {
		s.tick()
		runtime.GC()
		start := time.Now()
		op()
		d := time.Since(start)
		s.addTimed(d)
		s.add(class, d)
	}
	for s.timed < cfg.Seconds {
		var f *experiments.Fig7Result
		var t2r *experiments.Table2Result
		var warm *paperTable
		timed("cold", func() { f = experiments.Fig7(p) })
		timed("near", func() { t2r = experiments.Table2(p) })
		timed("warm", func() { warm = reproduce(cached) })
		o.Attempted += 3
		if bad := badFig7(golden, f.Cycles); bad > 0 {
			o.fail("cold: %d Fig. 7 cells differ from the golden table", bad)
		}
		if bad := badTable2(golden, t2r); bad > 0 {
			o.fail("near: %d Table 2 cells differ from the golden table", bad)
		}
		if bad := paperBad(golden, warm); bad > 0 {
			o.fail("warm: %d cells differ from the golden table", bad)
		}
		avg = t2r.AvgHEFvsMolen
	}
	o.Values["heap_peak_mb"] = heap.Stop()
	s.finish()
	o.Values["setup_s"] = quantile(setups, 0.5) * s.factor()
	o.Values["throughput_ops"] = float64(o.Attempted) / s.timedSeconds()
	o.Values["success_rate"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
	s.putPercentiles(o.Values, "cold", "near", "warm")
	o.Notes = append(o.Notes,
		s.note("cold", "near", "warm"),
		fmt.Sprintf("fidelity Table 2 average HEF vs Molen speedup %.2fx (paper: %.2fx)", avg, paperAvgSpeedup))
	return o, nil
}

// paperBad counts all cells of a reproduction that differ from golden.
func paperBad(g, t *paperTable) int {
	return badFig7(g, t.Fig7) + badTable2(g, &experiments.Table2Result{
		HEFvsASF: t.HEFvsASF, ASFvsMolen: t.ASFvsMolen, HEFvsMolen: t.HEFvsMolen,
	})
}

// paperTraced attributes one reproduction to its layers by peeling. The
// top pass is experiments.Fig7 + Table2 on one sweep worker, so that the
// layers' times add up to its wall time. The same 140 points are then
// re-entered one layer lower, on fresh instances and in the same order —
// trace generation and compile once per sweep, a fresh runtime per point,
// sim.RunCompiled — once plain and once with the hook timing decorator.
// The three passes are repeated tracedReps times in turn and each keeps
// its fastest repetition. experiments.self_ms (the exploration engine and
// the sweep's glue) is the top pass minus the plain lower pass.
func paperTraced(p experiments.Params, golden *paperTable) (*outcome, error) {
	o := &outcome{Values: make(map[string]float64)}
	seq := p
	seq.Workers = 1
	reproduce(seq) // warm-up: the first pass would also pay for growing the heap

	var top fastest[float64] // GC CPU seconds of the pass
	var lower lowerBest
	for rep := 0; rep < tracedReps; rep++ {
		runtime.GC()
		gc0 := gcCPUSeconds()
		start := time.Now()
		t := reproduce(seq)
		top.offer(gcCPUSeconds()-gc0, time.Since(start))
		o.Attempted++
		if bad := paperBad(golden, t); bad > 0 {
			o.fail("top pass: %d cells differ from the golden table", bad)
		}

		var ls [2]*lowerRunner
		var walls [2]time.Duration
		for i, traced := range []bool{false, true} {
			runtime.GC()
			start := time.Now()
			l, t, err := paperLower(golden, traced)
			walls[i] = time.Since(start)
			if err != nil {
				return nil, err
			}
			ls[i] = l
			o.Attempted++
			if bad := paperBad(golden, t); bad > 0 {
				o.fail("lower pass: %d cells differ from the golden table", bad)
			}
		}
		lower.offer(ls, walls)
	}
	lower.put(o.Values)
	o.Values["go.gc_cpu_s"] = top.v
	o.Values["experiments.self_ms"] = ms(top.wall - lower[0].wall)
	o.Values["trace.wall_ms"] = ms(top.wall)
	checkAttribution(o, lower[0].wall-lower[0].v.spans(), top.wall)
	return o, nil
}

// paperLower re-enters the reproduction's 140 points through lowerRunner:
// the Fig. 7 sweep, then Table 2's, each generating and compiling its own
// trace as experiments does.
func paperLower(g *paperTable, traced bool) (*lowerRunner, *paperTable, error) {
	l := newLowerRunner(traced)
	frames := g.Frames
	sweep := func(systems []string) (map[string]map[int]int64, error) {
		clear(l.works)
		out := make(map[string]map[int]int64)
		var res sim.Result
		for _, s := range systems {
			out[s] = make(map[int]int64)
			for _, n := range g.ACs {
				pt := explore.Point{Scheduler: s, NumACs: n, Frames: frames, SeedForecasts: true}
				if _, err := l.run(context.Background(), pt, &res); err != nil {
					return nil, err
				}
				out[s][n] = res.TotalCycles
			}
		}
		return out, nil
	}
	fig7, err := sweep(sched.Names)
	if err != nil {
		return nil, nil, err
	}
	t2, err := sweep([]string{"ASF", "HEF", "Molen"})
	if err != nil {
		return nil, nil, err
	}
	t := &paperTable{Frames: g.Frames, ACs: g.ACs, Fig7: fig7}
	for _, n := range g.ACs {
		t.HEFvsASF = append(t.HEFvsASF, stats.SpeedupValue(t2["ASF"][n], t2["HEF"][n]))
		t.ASFvsMolen = append(t.ASFvsMolen, stats.SpeedupValue(t2["Molen"][n], t2["ASF"][n]))
		t.HEFvsMolen = append(t.HEFvsMolen, stats.SpeedupValue(t2["Molen"][n], t2["HEF"][n]))
	}
	return l, t, nil
}
