package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rispp/internal/experiments"
	"rispp/internal/explore"
)

// runTiny runs one workload at smoke-test size and returns its report.
func runTiny(t *testing.T, workload, seed, trace string) report {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace, "--tiny", "--root", t.TempDir()}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", workload, err, out.String())
	}
	return r
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for _, wl := range []string{"paper-cold", "serve-mix", "fleet-sweep"} {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			r := runTiny(t, wl, "1", trace)
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", wl, trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", wl, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", wl, trace, d.Name, m, d.Unit)
				}
				if trace == "0" && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl, d.Name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the metric tables.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%d metrics in BENCHMARK.json, want %d", len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].Name || m.Unit != c.want[i].Unit {
				t.Errorf("BENCHMARK.json metric %d = %s %s, want %s %s", i, m.Name, m.Unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

func TestStoredGoldenMatchesReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("reproduces the paper's 140-frame sweep")
	}
	g, err := loadPaperGolden()
	if err != nil {
		t.Fatal(err)
	}
	if bad := paperBad(g, reproduce(experiments.Params{})); bad != 0 {
		t.Fatalf("%d of 140 cells differ from golden/paper.json", bad)
	}
}

func TestTamperedGoldenFails(t *testing.T) {
	p := experiments.Params{Frames: 2, ACs: []int{5, 6}}
	got := reproduce(p)
	g := reproduce(p)
	if bad := paperBad(g, got); bad != 0 {
		t.Fatalf("untampered: %d bad cells", bad)
	}
	g.Fig7["HEF"][6]++
	g.HEFvsMolen[0] += 1e-9
	if bad := paperBad(g, got); bad != 2 {
		t.Fatalf("tampered golden: %d bad cells, want 2", bad)
	}
}

func TestTamperedResponseFails(t *testing.T) {
	seq := serveSequence(1, 0, 40, []int{2})
	l := newLowerRunner(false)
	status := make([]int, len(seq))
	bodies := make([][]byte, len(seq))
	for i, r := range seq {
		m, err := l.check(context.Background(), r.pt)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(simBody{Cycles: m.TotalCycles, Stall: m.StallCycles, SW: m.SWExecutions, HW: m.HWExecutions})
		status[i], bodies[i] = http.StatusOK, b
	}
	var o outcome
	checkServeRound(&o, seq, status, bodies)
	if o.Failed != 0 {
		t.Fatalf("faithful responses: %d failures: %v", o.Failed, o.Notes)
	}

	// A wrong first body fails the reference check; a repeat that differs
	// from its first body fails the byte check.
	first, repeat := -1, -1
	for i, r := range seq {
		if r.class == "warm" {
			repeat = i
			for j := 0; j < i; j++ {
				if seq[j].pt == r.pt {
					first = j
					break
				}
			}
			break
		}
	}
	if repeat < 0 {
		t.Fatal("sequence has no repeat")
	}
	wrong := bytes.Replace(bodies[first], []byte(`"cycles":`), []byte(`"cycles":1`), 1)
	for _, tc := range []struct {
		name string
		i    int
	}{{"first body", first}, {"repeat body", repeat}} {
		tampered := append([][]byte(nil), bodies...)
		tampered[tc.i] = wrong
		var o outcome
		checkServeRound(&o, seq, status, tampered)
		if o.Failed == 0 {
			t.Errorf("tampered %s passed the check", tc.name)
		}
	}
	st := append([]int(nil), status...)
	st[0] = http.StatusTooManyRequests
	o = outcome{}
	checkServeRound(&o, seq, st, bodies)
	if o.Failed == 0 {
		t.Error("a 429 passed the check")
	}
}

func TestTamperedStreamFails(t *testing.T) {
	z := fleetSize(config{Tiny: true})
	seq := fleetSequence(1, 0, 1, z.frames, z.evenACs, z.oddACs)
	want, _, _, err := singleProcess(reference(), seq)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]byte, len(seq))
	for i, s := range seq {
		got[i] = want[string(s.body)]
	}
	var o outcome
	checkStreams(&o, seq, got, want)
	if o.Failed != 0 {
		t.Fatalf("faithful streams: %v", o.Notes)
	}
	got[1] = bytes.Replace(got[1], []byte(`"cycles":`), []byte(`"cycles":9`), 1)
	checkStreams(&o, seq, got, want)
	if o.Failed != 1 {
		t.Fatalf("tampered stream: %d failures, want 1", o.Failed)
	}
}

// TestWorkloadLayersCoverPerLayer checks the per-workload lists of layer
// metrics: each names metrics of perLayer once, and every per-layer metric
// is measured by some workload.
func TestWorkloadLayersCoverPerLayer(t *testing.T) {
	known := make(map[string]bool)
	for _, d := range perLayer {
		known[d.Name] = true
	}
	covered := make(map[string]bool)
	for wl, def := range workloads {
		seen := make(map[string]bool)
		for _, name := range def.layers {
			if !known[name] || seen[name] {
				t.Errorf("%s: layer metric %s unknown or listed twice", wl, name)
			}
			seen[name] = true
			covered[name] = true
		}
	}
	for name := range known {
		if !covered[name] {
			t.Errorf("no workload measures %s", name)
		}
	}
}

func TestBuildReportRejectsMissingAndUnknownMetrics(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}, {"c", "count"}}
	o := &outcome{Attempted: 1, Values: map[string]float64{"a_ms": 1, "b": 0}}
	r, err := buildReport(o, defs, []string{"a_ms", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || len(r.Metrics) != 3 || r.Metrics["c"].Value != 0 {
		t.Errorf("report %+v", r)
	}
	if _, err := buildReport(o, defs, []string{"a_ms", "c"}); err == nil {
		t.Error("a measured metric the workload did not write passed")
	}
	o.Values["a-ms"] = 1
	if _, err := buildReport(o, defs, nil); err == nil {
		t.Error("a misspelled metric passed")
	}
}

// TestMisattributionFails feeds the attribution check traced outcomes whose
// layer times are wrong in each way it can see.
func TestMisattributionFails(t *testing.T) {
	good := map[string]float64{"fabric.self_ms": 40, "serve.explore_self_ms": 20, "rispp.self_ms": -140, "http.transport_ms": 5}
	for _, tc := range []struct {
		name    string
		values  map[string]float64
		outside time.Duration
		wall    time.Duration
		fail    bool
	}{
		{"faithful", good, 10 * time.Millisecond, time.Second, false},
		{"glue above the margin", good, 60 * time.Millisecond, time.Second, true},
		{"negative glue", good, -60 * time.Millisecond, time.Second, true},
		{"lower pass slower than its layer", map[string]float64{"fabric.self_ms": -160, "serve.explore_self_ms": 20}, 0, time.Second, true},
		{"negative transport", map[string]float64{"http.transport_ms": -151}, 0, time.Second, true},
		{"negative count is no self time", map[string]float64{"core.atom_loads": -100}, 0, time.Second, false},
		{"short pass within the slack", map[string]float64{"experiments.self_ms": -8}, 0, 20 * time.Millisecond, false},
		{"short pass beyond the slack", map[string]float64{"experiments.self_ms": -12}, 0, 20 * time.Millisecond, true},
	} {
		o := &outcome{Attempted: 1, Values: make(map[string]float64)}
		for k, v := range tc.values {
			o.Values[k] = v
		}
		checkAttribution(o, tc.outside, tc.wall)
		if got := o.Failed > 0; got != tc.fail {
			t.Errorf("%s: failed=%v, want %v (%v)", tc.name, got, tc.fail, o.Notes)
		}
	}
}

func TestSeedChangesPointsNotMetrics(t *testing.T) {
	a := serveSequence(1, 0, 60, serveFrames)
	b := serveSequence(2, 0, 60, serveFrames)
	if reflect.DeepEqual(a, b) {
		t.Error("serve-mix sequences of seeds 1 and 2 are equal")
	}
	if c := serveSequence(1, 0, 60, serveFrames); !reflect.DeepEqual(a, c) {
		t.Error("serve-mix sequence of seed 1 is not reproducible")
	}
	z := fleetSize(config{})
	if reflect.DeepEqual(fleetSequence(1, 0, 2, z.frames, z.evenACs, z.oddACs), fleetSequence(2, 0, 2, z.frames, z.evenACs, z.oddACs)) {
		t.Error("fleet-sweep sequences of seeds 1 and 2 are equal")
	}
	for _, wl := range []string{"serve-mix", "fleet-sweep"} {
		r1, r2 := runTiny(t, wl, "1", "0"), runTiny(t, wl, "2", "0")
		for name := range r1.Metrics {
			if _, ok := r2.Metrics[name]; !ok {
				t.Errorf("%s: seed 2 lacks metric %s", wl, name)
			}
		}
		if len(r1.Metrics) != len(r2.Metrics) {
			t.Errorf("%s: metric sets differ in size", wl)
		}
	}
}

// TestSequenceClasses checks the serve-mix traffic shape: roughly equal
// thirds, fresh seeds for cold requests, new system/AC pairs for near
// ones, and exact earlier points for repeats.
func TestSequenceClasses(t *testing.T) {
	seq := serveSequence(5, 0, 600, serveFrames)
	count := map[string]int{}
	seen := map[string]bool{}
	works := map[workKey]bool{}
	for i, r := range seq {
		count[r.class]++
		k := r.pt.Key()
		switch r.class {
		case "cold":
			if works[workOf(r.pt)] {
				t.Fatalf("cold request %d reuses a workload", i)
			}
			if r.pt.Scenario == "" && r.pt.Motion <= 0 {
				t.Fatalf("cold request %d has no motion", i)
			}
			works[workOf(r.pt)] = true
		case "near":
			if !works[workOf(r.pt)] {
				t.Fatalf("near request %d names an unseen workload", i)
			}
		case "warm":
			if !seen[k] {
				t.Fatalf("repeat %d names an unseen point", i)
			}
		}
		seen[k] = true
	}
	for _, c := range []string{"cold", "near", "warm"} {
		if count[c] < 150 || count[c] > 250 {
			t.Errorf("%s requests: %d of 600", c, count[c])
		}
	}
	if _, err := (explore.Spec{Points: []explore.Point{seq[0].pt}}).Expand(); err != nil {
		t.Error(err)
	}
}
