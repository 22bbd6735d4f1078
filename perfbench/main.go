// Command perfbench is the end-to-end, layer-attributed benchmark of the
// RISPP reproduction. It runs one named workload against the program's
// public entry points, checks every output it measures, and prints each
// metric by name and unit, ending with one JSON line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 a separate traced run reports the per-layer ones (perLayer).
// See README.md for why each workload exists and which layer metric
// should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them (see README.md for their meaning per
// workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"success_rate", "ratio"},
	{"throughput_ops", "1/s"},
	{"cold_p50_ms", "ms"},
	{"cold_p90_ms", "ms"},
	{"near_p50_ms", "ms"},
	{"near_p90_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"warm_p90_ms", "ms"},
}

// perLayer are the traced run's metrics. Each workload measures the ones
// its workloadDef lists; a layer its trace does not reach reports 0.
var perLayer = []metricDef{
	{"trace.wall_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"experiments.self_ms", "ms"},
	{"workload.gen_ms", "ms"},
	{"workload.gen_calls", "count"},
	{"workload.compile_ms", "ms"},
	{"workload.compile_calls", "count"},
	{"rispp.acquire_ms", "ms"},
	{"rispp.pool_hits", "count"},
	{"rispp.pool_misses", "count"},
	{"rispp.self_ms", "ms"},
	{"rispp.trail_serves", "count"},
	{"rispp.trail_resumes", "count"},
	{"rispp.trail_records", "count"},
	{"sim.loop_self_ms", "ms"},
	{"core.enter_ms", "ms"},
	{"core.enter_calls", "count"},
	{"core.leave_ms", "ms"},
	{"core.event_ms", "ms"},
	{"core.atom_loads", "count"},
	{"core.event_polls", "count"},
	{"core.record_calls", "count"},
	{"core.latency_calls", "count"},
	{"http.transport_ms", "ms"},
	{"serve.handler_self_ms", "ms"},
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.shed", "count"},
	{"fabric.self_ms", "ms"},
	{"serve.explore_self_ms", "ms"},
	{"explore.execute_ms", "ms"},
	{"fabric.shard_retries", "count"},
	{"fabric.worker_failures", "count"},
	{"fabric.peer_hits", "count"},
	{"fabric.peer_misses", "count"},
	{"fabric.peer_errs", "count"},
	{"explore.simulated", "count"},
	{"explore.cache_hits", "count"},
	{"go.gc_cpu_s", "s"},
}

// unattributedMarginPct bounds the traced run's attribution: its per-layer
// self times must add up to its wall time within this share, or the run
// reports itself incorrect.
const unattributedMarginPct = 5.0

// negativeSelfMarginPct bounds how far below zero a layer's self time may
// fall, as a share of the traced wall time, before the run reports itself
// incorrect. It sits above the noise of two passes' fastest repetitions on
// a shared machine (up to 9% on a layer whose true self time is about 0),
// and below what a lower pass that runs work its layer skips produces.
// Passes of a few milliseconds (--tiny) move by a GC cycle or a goroutine
// wake-up, so the floor is never closer to zero than negativeSelfSlackMs.
const (
	negativeSelfMarginPct = 15.0
	negativeSelfSlackMs   = 10.0
)

// checkAttribution checks a traced run's attribution against its wall
// time. The self times are differences of nested passes, so they add up to
// the wall time less the client's own glue (outside), reported as
// trace.unattributed_pct. That sum cannot expose a wrong attribution; a
// negative self time can: a layer that only adds work to the layers below
// it can only be slower than they are, and a self time below
// -negativeSelfMarginPct of the wall time means a lower pass ran work the
// layer above it did not, or ran it differently.
func checkAttribution(o *outcome, outside, wall time.Duration) {
	pct := 100 * outside.Seconds() / wall.Seconds()
	o.Values["trace.unattributed_pct"] = pct
	if pct > unattributedMarginPct || pct < -unattributedMarginPct {
		o.fail("layer self times miss the traced wall time by %.2f%% (margin %.0f%%)", pct, unattributedMarginPct)
	}
	floor := -max(negativeSelfMarginPct/100*ms(wall), negativeSelfSlackMs)
	for _, d := range perLayer {
		if v, ok := o.Values[d.Name]; ok && isSelfTime(d.Name) && v < floor {
			o.fail("%s is %.1f ms, below %.1f ms (-%.0f%% of the traced wall time %.1f ms)", d.Name, v, floor, negativeSelfMarginPct, ms(wall))
		}
	}
}

// isSelfTime reports whether a per-layer metric is a self time: a layer's
// time minus the time of the layer below it.
func isSelfTime(name string) bool {
	return strings.HasSuffix(name, "self_ms") || name == "http.transport_ms"
}

// config is what every workload receives.
type config struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	// Root is the checkout the benchmark runs from; scratch files go under
	// Root/.bench_build.
	Root string
	// Tiny shrinks every workload to a few milliseconds of work (tests).
	Tiny bool
}

// outcome is what a workload returns: counts of checked operations and
// the metric values by name.
type outcome struct {
	Attempted int
	Failed    int
	Values    map[string]float64
	// Notes are human-readable lines printed before the result (fidelity
	// lines, trace breakdowns).
	Notes []string
}

func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	o.Notes = append(o.Notes, "FAIL "+fmt.Sprintf(format, args...))
}

// workloadDef is a workload and the per-layer metrics its traced run
// measures.
type workloadDef struct {
	run    func(cfg config) (*outcome, error)
	layers []string
}

var (
	traceLayers = []string{"trace.wall_ms", "trace.overhead_pct", "trace.unattributed_pct", "go.gc_cpu_s"}
	// lowerLayers are what putLayers stores from the lowerRunner passes.
	lowerLayers = []string{
		"workload.gen_ms", "workload.gen_calls", "workload.compile_ms", "workload.compile_calls",
		"rispp.acquire_ms", "sim.loop_self_ms",
		"core.enter_ms", "core.enter_calls", "core.leave_ms", "core.event_ms", "core.atom_loads",
		"core.event_polls", "core.record_calls", "core.latency_calls",
	}
	runnerLayers = []string{
		"rispp.pool_hits", "rispp.pool_misses", "rispp.self_ms",
		"rispp.trail_serves", "rispp.trail_resumes", "rispp.trail_records",
	}
)

var workloads = map[string]workloadDef{
	"paper-cold": {paperCold, slices.Concat(traceLayers, lowerLayers, []string{"experiments.self_ms"})},
	"serve-mix": {serveMix, slices.Concat(traceLayers, lowerLayers, runnerLayers, []string{
		"http.transport_ms", "serve.handler_self_ms", "serve.cache_hits", "serve.cache_misses", "serve.shed",
	})},
	"fleet-sweep": {fleetSweep, slices.Concat(traceLayers, lowerLayers, runnerLayers, []string{
		"fabric.self_ms", "serve.explore_self_ms", "explore.execute_ms", "fabric.shard_retries",
		"fabric.worker_failures", "fabric.peer_hits", "fabric.peer_misses", "fabric.peer_errs",
		"explore.simulated", "explore.cache_hits",
	})},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport turns an outcome into the final JSON object over the mode's
// metric set defs. Every metric in measured must be present and every
// value must be one of defs; anything else is a benchmark bug. Metrics of
// defs that are not measured report 0.
func buildReport(o *outcome, defs []metricDef, measured []string) (*report, error) {
	for _, name := range measured {
		if _, ok := o.Values[name]; !ok {
			return nil, fmt.Errorf("workload did not measure %s", name)
		}
	}
	r := &report{Attempted: o.Attempted, Failed: o.Failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: o.Values[d.Name], Unit: d.Unit}
	}
	for name := range o.Values {
		if _, ok := r.Metrics[name]; !ok {
			return nil, fmt.Errorf("workload measured unknown metric %s", name)
		}
	}
	r.Correct = r.Attempted > 0 && r.Failed == 0
	return r, nil
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: paper-cold, serve-mix or fleet-sweep")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout directory (scratch files go under ROOT/.bench_build)")
	tiny := fs.Bool("tiny", false, "shrink every workload to a smoke-test size")
	golden := fs.String("write-golden", "", "regenerate the paper-cold golden table into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *golden != "" {
		if err := writePaperGolden(*golden); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1, Root: *root, Tiny: *tiny}

	env, err := json.Marshal(environment(cfg.Root, *name, cfg.Seed))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "env %s\n", env)
	o, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, measured := endToEnd, names(endToEnd)
	if cfg.Trace {
		defs, measured = perLayer, wl.layers
	}
	rep, err := buildReport(o, defs, measured)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, n := range o.Notes {
		fmt.Fprintln(stdout, n)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %-24s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}
