// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment returns structured data plus a
// rendered text block; cmd/risppbench prints them and bench_test.go wraps
// them in testing.B benchmarks.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/stats"
	"rispp/internal/workload"
)

// Params controls experiment sizing; the zero value reproduces the paper's
// setup (140 CIF frames, ACs 5–24).
type Params struct {
	Frames int   // default 140
	ACs    []int // default 5..24

	// Workers bounds the sweep worker pool (0 = GOMAXPROCS). The simulator
	// is deterministic, so the worker count never changes results.
	Workers int
	// CacheDir, when set, reuses completed sweep points from (and stores
	// new ones into) a content-addressed result cache.
	CacheDir string
}

func (p *Params) setDefaults() {
	if p.Frames == 0 {
		p.Frames = 140
	}
	if len(p.ACs) == 0 {
		for n := 5; n <= 24; n++ {
			p.ACs = append(p.ACs, n)
		}
	}
}

// runPoint simulates one (system, ACs) cell of trace tr with seeded
// forecasts; system is a scheduler name, "Molen" or "software".
func runPoint(is *isa.ISA, tr *workload.Trace, system string, acs int, opts sim.Options) *sim.Result {
	res, err := rispp.Run(rispp.Config{
		ISA: is, Workload: tr, Scheduler: system, NumACs: acs,
		SeedForecasts: true, Collect: opts,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%d ACs: %v", system, acs, err))
	}
	return res
}

// sweep runs systems × ACs over the paper's H.264 trace of p.Frames frames
// through the exploration engine of rispp.Explorer: parallel on a bounded
// worker pool, with optional result caching keyed by the full design point.
// The trace is generated and compiled once, on the first uncached point, so
// a fully cached sweep never builds it.
func sweep(systems []string, p Params) map[string]map[int]int64 {
	var cache *explore.Cache // non-nil only when a directory is configured
	if p.CacheDir != "" {
		c, err := explore.OpenCache(p.CacheDir)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		cache = c
	}
	// Frames is part of the point so that cached results from differently
	// sized sweeps can never collide.
	spec := explore.Spec{Schedulers: systems, ACs: p.ACs, Frames: []int{p.Frames}, SeedForecasts: []bool{true}}
	r, err := rispp.Explorer(rispp.Config{}, p.Workers, cache).Execute(context.Background(), spec, nil)
	if err != nil {
		panic(fmt.Sprintf("experiments: sweep: %v", err))
	}
	if err := r.FirstErr(); err != nil {
		panic(fmt.Sprintf("experiments: sweep: %v", err))
	}
	out := make(map[string]map[int]int64)
	for _, rec := range r.Records {
		if out[rec.Point.Scheduler] == nil {
			out[rec.Point.Scheduler] = make(map[int]int64)
		}
		out[rec.Point.Scheduler][rec.Point.NumACs] = rec.TotalCycles
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 2 — SI executions per 100K cycles in the ME hot spot, with vs.
// without stepwise SI upgrade.

// Fig2Result carries both runs of the Figure 2 comparison.
type Fig2Result struct {
	With    *sim.Result // RISPP/HEF: stepwise upgrades
	Without *sim.Result // Molen-like: software until fully reconfigured
	Text    string
}

// Fig2 runs the Motion Estimation hot spot of one frame on a 12-container
// fabric, once with stepwise SI upgrades (RISPP/HEF) and once without
// (single implementation per SI).
func Fig2() *Fig2Result {
	is := isa.H264()
	full := workload.H264(workload.H264Config{Frames: 1})
	me := &workload.Trace{Name: "me-hotspot", Phases: full.Phases[:1]}
	opts := sim.Options{HistogramBucket: 100_000, Timeline: true}

	withUp := runPoint(is, me, "HEF", 12, opts)
	withoutUp := runPoint(is, me, "Molen", 12, opts)

	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — %d SI executions (SAD+SATD) of the ME hot spot, 12 ACs\n\n",
		me.TotalExecutions())
	series := [][]int64{}
	labels := []string{}
	for _, r := range []*sim.Result{withoutUp, withUp} {
		sum := []int64{}
		for _, si := range []isa.SIID{isa.SISAD, isa.SISATD} {
			for i, c := range r.Histogram.Counts(int(si)) {
				if i >= len(sum) {
					sum = append(sum, 0)
				}
				sum[i] += c
			}
		}
		series = append(series, sum)
	}
	labels = append(labels, "no SI upgrade   ", "stepwise upgrade")
	b.WriteString(stats.Chart(labels, series))
	fmt.Fprintf(&b, "\nExecution time: without upgrade %d cycles, with stepwise upgrade %d cycles (%.2fx)\n",
		withoutUp.TotalCycles, withUp.TotalCycles,
		float64(withoutUp.TotalCycles)/float64(withUp.TotalCycles))
	return &Fig2Result{With: withUp, Without: withoutUp, Text: b.String()}
}

// ---------------------------------------------------------------------------
// Figure 4 — Molecule availability under different Atom schedules.

// Fig4Row is one row of the Figure 4 table: after loading the n-th Atom,
// the fastest Molecule each schedule has made available.
type Fig4Row struct {
	LoadedAtoms int
	Good, Naive string // fastest available Molecule (by name) per schedule
}

// Fig4Result carries the schedule comparison of Figure 4.
type Fig4Result struct {
	Rows []Fig4Row
	Text string
}

// Fig4 reproduces the Figure 4 scenario: an SI with Molecules m1=(1,2) ≤
// m2=(2,2) ≤ m3=(3,3); a good schedule (HEF order u2,u2,u1,u1,u2,u1) makes
// m1 available after 3 Atom loads and m2 after 4, while a naive type-sorted
// schedule (u1,u1,u1,u2,u2,u2) offers nothing before load 5.
func Fig4() *Fig4Result {
	is := fig4ISA()
	si := is.SI(0)
	req := []sched.Request{{SI: si, Selected: si.Fastest(), Expected: 1000}}
	hef, _ := sched.New("HEF")
	good := hef.Schedule(req, molecule.New(2))
	naive := []isa.AtomID{0, 0, 0, 1, 1, 1} // all A1 first, then all A2

	timing := reconfig.DefaultTiming()
	atomUs := timing.Microseconds(timing.LoadCycles(60488))

	name := func(seq []isa.AtomID, n int) string {
		a := molecule.New(2)
		for _, atom := range seq[:n] {
			a[int(atom)]++
		}
		m, ok := si.FastestAvailable(a)
		if !ok {
			return "-"
		}
		switch {
		case m.Atoms.Equal(molecule.Of(1, 2)):
			return "m1"
		case m.Atoms.Equal(molecule.Of(2, 2)):
			return "m2"
		case m.Atoms.Equal(molecule.Of(3, 3)):
			return "m3"
		}
		return m.Atoms.String()
	}

	r := &Fig4Result{}
	tb := &stats.Table{Header: []string{"#loaded Atoms", "good schedule", "naive schedule"}}
	for n := 1; n <= 6; n++ {
		row := Fig4Row{LoadedAtoms: n, Good: name(good, n), Naive: name(naive, n)}
		r.Rows = append(r.Rows, row)
		tb.AddRow(fmt.Sprint(n), row.Good, row.Naive)
	}
	var b strings.Builder
	b.WriteString("Figure 4 — Molecule availability under two Atom schedules\n\n")
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nAvg Atom reconfiguration: %.2f µs; skipping the m1/m2 upgrades keeps the SI\n", atomUs)
	fmt.Fprintf(&b, "in software for %.2f µs instead of %.2f µs.\n", 5*atomUs, 3*atomUs)
	r.Text = b.String()
	return r
}

// fig4ISA builds the Figure 4 toy ISA (shared with the sched tests).
func fig4ISA() *isa.ISA {
	is := &isa.ISA{
		Name: "fig4",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A1", BitstreamBytes: 60488},
			{ID: 1, Name: "A2", BitstreamBytes: 60488},
		},
		SIs: []isa.SI{{
			ID: 0, Name: "SI", HotSpot: 0, SWLatency: 500,
			Molecules: []isa.Molecule{
				{SI: 0, Atoms: molecule.Of(1, 2), Latency: 100},
				{SI: 0, Atoms: molecule.Of(2, 2), Latency: 60},
				{SI: 0, Atoms: molecule.Of(3, 3), Latency: 30},
			},
		}},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "hot", SIs: []isa.SIID{0}}},
	}
	if err := is.Validate(); err != nil {
		panic(err)
	}
	return is
}

// ---------------------------------------------------------------------------
// Table 1 — the SI inventory.

// Table1 renders the implemented SI library: Atom types and Molecule counts
// per SI, grouped by hot spot.
func Table1() string {
	is := isa.H264()
	tb := &stats.Table{Header: []string{"Hot spot", "Special Instruction", "#Atom-types", "#Molecules"}}
	for _, h := range is.HotSpots {
		for _, id := range h.SIs {
			si := is.SI(id)
			types := map[int]bool{}
			for _, m := range si.Molecules {
				for atom, c := range m.Atoms {
					if c > 0 {
						types[atom] = true
					}
				}
			}
			tb.AddRow(h.Name, si.Name, fmt.Sprint(len(types)), fmt.Sprint(len(si.Molecules)))
		}
	}
	return "Table 1 — Implemented SIs of the H.264 encoder\n\n" + tb.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — execution time vs. #ACs for the four schedulers.

// Fig7Result maps scheduler → ACs → total cycles.
type Fig7Result struct {
	Cycles map[string]map[int]int64
	ACs    []int
	Text   string
}

// Fig7 sweeps the four SI schedulers over the Atom Container range while
// encoding the CIF sequence.
func Fig7(p Params) *Fig7Result {
	p.setDefaults()
	cycles := sweep(sched.Names, p)

	tb := &stats.Table{Header: append([]string{"#ACs"}, sched.Names...)}
	for _, n := range p.ACs {
		row := []string{fmt.Sprint(n)}
		for _, s := range sched.Names {
			row = append(row, fmt.Sprintf("%.1fM", float64(cycles[s][n])/1e6))
		}
		tb.AddRow(row...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — Execution time encoding %d CIF frames [cycles]\n\n", p.Frames)
	b.WriteString(tb.String())
	return &Fig7Result{Cycles: cycles, ACs: p.ACs, Text: b.String()}
}

// ---------------------------------------------------------------------------
// Table 2 — speedups HEF vs ASF, ASF vs Molen, HEF vs Molen.

// Table2Result carries the speedup rows of Table 2.
type Table2Result struct {
	ACs           []int
	HEFvsASF      []float64
	ASFvsMolen    []float64
	HEFvsMolen    []float64
	AvgHEFvsMolen float64
	Text          string
}

// Table2 compares the worst (ASF) and best (HEF) scheduler against the
// Molen-like baseline over the AC range.
func Table2(p Params) *Table2Result {
	p.setDefaults()
	cycles := sweep([]string{"ASF", "HEF", "Molen"}, p)

	r := &Table2Result{ACs: p.ACs}
	tb := &stats.Table{Header: []string{"#ACs", "HEF vs ASF", "ASF vs Molen", "HEF vs Molen"}}
	sum := 0.0
	for _, n := range p.ACs {
		hefASF := stats.SpeedupValue(cycles["ASF"][n], cycles["HEF"][n])
		asfMol := stats.SpeedupValue(cycles["Molen"][n], cycles["ASF"][n])
		hefMol := stats.SpeedupValue(cycles["Molen"][n], cycles["HEF"][n])
		r.HEFvsASF = append(r.HEFvsASF, hefASF)
		r.ASFvsMolen = append(r.ASFvsMolen, asfMol)
		r.HEFvsMolen = append(r.HEFvsMolen, hefMol)
		sum += hefMol
		tb.AddRow(fmt.Sprint(n), fmt.Sprintf("%.2f", hefASF), fmt.Sprintf("%.2f", asfMol), fmt.Sprintf("%.2f", hefMol))
	}
	r.AvgHEFvsMolen = sum / float64(len(p.ACs))
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Speedups over %d CIF frames\n\n", p.Frames)
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nAverage HEF vs Molen speedup: %.2fx (paper: 1.71x, max 2.38x)\n", r.AvgHEFvsMolen)
	r.Text = b.String()
	return r
}

// ---------------------------------------------------------------------------
// Figure 8 — detailed HEF behaviour at 10 ACs.

// Fig8Result carries the detail run of Figure 8.
type Fig8Result struct {
	Result *sim.Result
	Text   string
}

// Fig8 runs the first two hot spots (ME and EE) of one frame with the HEF
// scheduler on 10 Atom Containers, recording SI latency steps (the lines of
// the paper figure) and executions per 100K cycles (the bars).
func Fig8() *Fig8Result {
	is := isa.H264()
	full := workload.H264(workload.H264Config{Frames: 1})
	two := &workload.Trace{Name: "me+ee", Phases: full.Phases[:2]}
	res := runPoint(is, two, "HEF", 10, sim.Options{HistogramBucket: 100_000, Timeline: true})

	watch := []isa.SIID{isa.SISAD, isa.SISATD, isa.SIMC, isa.SIDCT}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 — HEF detail, first two hot spots (ME, EE) of one frame, 10 ACs\n")
	fmt.Fprintf(&b, "Total: %d cycles\n\nLatency steps (cycle: latency):\n", res.TotalCycles)
	for _, si := range watch {
		events := res.Timeline.PerSI(int(si))
		fmt.Fprintf(&b, "  %-10s", is.SI(si).Name)
		for _, e := range events {
			fmt.Fprintf(&b, "  %d:%d", e.Cycle, e.Latency)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nExecutions per 100K cycles:\n")
	labels := []string{}
	series := [][]int64{}
	for _, si := range watch {
		labels = append(labels, is.SI(si).Name)
		series = append(series, res.Histogram.Counts(int(si)))
	}
	b.WriteString(stats.Chart(labels, series))
	return &Fig8Result{Result: res, Text: b.String()}
}

// ---------------------------------------------------------------------------
// Section 5 — the 0-AC pure software number.

// SoftwareBaseline returns the pure-software execution (0 ACs) of the full
// encode, the paper's 7,403M cycles.
func SoftwareBaseline(p Params) (*sim.Result, string) {
	p.setDefaults()
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: p.Frames})
	res := runPoint(is, tr, "software", 0, sim.Options{})
	txt := fmt.Sprintf("Pure software (0 ACs), %d frames: %d cycles (paper: 7,403M for 140 frames)\n",
		p.Frames, res.TotalCycles)
	return res, txt
}

// CSV renders the Figure 7 sweep as comma-separated values.
func (r *Fig7Result) CSV() string {
	tb := &stats.Table{Header: append([]string{"acs"}, sched.Names...)}
	for _, n := range r.ACs {
		row := []string{fmt.Sprint(n)}
		for _, s := range sched.Names {
			row = append(row, fmt.Sprint(r.Cycles[s][n]))
		}
		tb.AddRow(row...)
	}
	return tb.CSV()
}

// CSV renders the Table 2 speedups as comma-separated values.
func (r *Table2Result) CSV() string {
	tb := &stats.Table{Header: []string{"acs", "hef_vs_asf", "asf_vs_molen", "hef_vs_molen"}}
	for i, n := range r.ACs {
		tb.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.4f", r.HEFvsASF[i]),
			fmt.Sprintf("%.4f", r.ASFvsMolen[i]),
			fmt.Sprintf("%.4f", r.HEFvsMolen[i]))
	}
	return tb.CSV()
}

// ---------------------------------------------------------------------------
// Beyond the paper: the schedulers against the exhaustive optimum.

// OptimalGapResult compares every scheduler's clairvoyant-rate cost with
// the exhaustive optimal schedule on tractable hot-spot instances.
type OptimalGapResult struct {
	// Ratio[hotspot][scheduler] = cost(scheduler) / cost(optimal).
	Ratio map[string]map[string]float64
	Text  string
}

// OptimalGap evaluates the ME and LF hot spots (the EE instance's state
// space is too large for the exact solver) with the calibrated forecasts.
func OptimalGap() *OptimalGapResult {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	prof := map[isa.SIID]int64{}
	for _, b := range tr.Phases[0].Bursts {
		prof[b.SI] += int64(b.Count)
	}
	for _, b := range tr.Phases[2].Bursts {
		prof[b.SI] += int64(b.Count)
	}
	cost := func(a isa.AtomID) int64 { return int64(is.Atom(a).BitstreamBytes) }

	r := &OptimalGapResult{Ratio: make(map[string]map[string]float64)}
	tb := &stats.Table{Header: append([]string{"hot spot"}, append(append([]string{}, sched.Names...), "optimal")...)}
	for _, h := range []isa.HotSpotID{isa.HotSpotME, isa.HotSpotLF} {
		var reqs []sched.Request
		for _, si := range is.HotSpotSIs(h) {
			reqs = append(reqs, sched.Request{SI: si, Selected: si.Fastest(), Expected: prof[si.ID]})
		}
		avail := molecule.New(is.Dim())
		e := sched.Exhaustive{Cost: cost}
		_, optCost, err := e.Schedule(reqs, avail)
		if err != nil {
			panic(err)
		}
		name := is.HotSpots[h].Name
		r.Ratio[name] = make(map[string]float64)
		row := []string{name}
		for _, sn := range sched.Names {
			s, _ := sched.New(sn)
			c := sched.EvalCost(s.Schedule(reqs, avail), reqs, avail, cost)
			ratio := float64(c) / float64(optCost)
			r.Ratio[name][sn] = ratio
			row = append(row, fmt.Sprintf("%.3f", ratio))
		}
		row = append(row, "1.000")
		tb.AddRow(row...)
	}
	var b strings.Builder
	b.WriteString("Scheduler cost vs. exhaustive optimum (clairvoyant-rate model)\n\n")
	b.WriteString(tb.String())
	r.Text = b.String()
	return r
}
