package rispp

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// TestRunPointScenarioMatchesDirect: a scenario point through the Runner
// (with its memo, pools and delta layer) is field-exact identical to a
// plain Run under the scenario's ISA and expanded trace.
func TestRunPointScenarioMatchesDirect(t *testing.T) {
	rn := NewRunner(Config{})
	for _, name := range scenario.Names() {
		sc, _ := scenario.Find(name)
		p := explore.Point{Scheduler: "HEF", NumACs: 6, Frames: 3, Seed: 2,
			SeedForecasts: true, Scenario: name}
		got := new(sim.Result)
		if err := rn.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
			t.Fatalf("%s: RunPoint: %v", name, err)
		}
		want, err := Run(Config{
			ISA:           sc.ISA(),
			Workload:      sc.Trace(3, 2),
			Scheduler:     "HEF",
			NumACs:        6,
			SeedForecasts: true,
		})
		if err != nil {
			t.Fatalf("%s: direct Run: %v", name, err)
		}
		if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles {
			t.Errorf("%s: Runner %d/%d cycles, direct %d/%d",
				name, got.TotalCycles, got.StallCycles, want.TotalCycles, want.StallCycles)
		}
		if !reflect.DeepEqual(got.Executions(), want.Executions()) {
			t.Errorf("%s: Executions differ between Runner and direct Run", name)
		}
	}
}

// TestRunPointScenarioReproducible: repeated runs of one scenario point —
// which exercise the compile memo and the runtime pool — stay field-exact.
func TestRunPointScenarioReproducible(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 8, Frames: 4, Seed: 1,
		SeedForecasts: true, Scenario: "video-crypto"}
	first := new(sim.Result)
	if err := rn.RunPoint(context.Background(), p, sim.Options{}, first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := new(sim.Result)
		if err := rn.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles != first.TotalCycles ||
			!reflect.DeepEqual(res.Phases, first.Phases) {
			t.Fatalf("run %d diverged from first run", i)
		}
	}
}

func TestRunPointScenarioErrors(t *testing.T) {
	ctx := context.Background()
	res := new(sim.Result)

	rn := NewRunner(Config{})
	err := rn.RunPoint(ctx, explore.Point{Scenario: "no-such"}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: err = %v", err)
	}

	err = rn.RunPoint(ctx, explore.Point{Scenario: "video-crypto", Motion: 0.5}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "H.264 knobs") {
		t.Errorf("scenario + motion: err = %v", err)
	}

	pinned := NewRunner(Config{Workload: workload.H264(workload.H264Config{Frames: 1})})
	err = pinned.RunPoint(ctx, explore.Point{Scenario: "video-crypto"}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "pins a workload") {
		t.Errorf("pinned base workload + scenario: err = %v", err)
	}
}

// TestRunPointSetScenario: the grouped single-pass path gives the same
// results as point-wise runs, and refuses sets that mix workloads.
func TestRunPointSetScenario(t *testing.T) {
	mk := func(sched string, acs int) explore.Point {
		return explore.Point{Scheduler: sched, NumACs: acs, Frames: 3, Seed: 1,
			SeedForecasts: true, Scenario: "early-exit-me"}
	}
	ps := []explore.Point{mk("FSFR", 6), mk("HEF", 6), mk("HEF", 10), mk("Molen", 6)}

	ref := NewRunner(Config{})
	want := make([]*sim.Result, len(ps))
	for i, p := range ps {
		want[i] = new(sim.Result)
		if err := ref.RunPoint(context.Background(), p, sim.Options{}, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	rn := NewRunner(Config{})
	got := make([]*sim.Result, len(ps))
	for i := range got {
		got[i] = new(sim.Result)
	}
	if err := rn.RunPointSet(context.Background(), ps, sim.Options{}, got); err != nil {
		t.Fatal(err)
	}
	for i := range ps {
		if got[i].TotalCycles != want[i].TotalCycles ||
			!reflect.DeepEqual(got[i].Executions(), want[i].Executions()) {
			t.Errorf("point %d (%s/%d): grouped result differs from point-wise",
				i, ps[i].Scheduler, ps[i].NumACs)
		}
	}

	mixed := []explore.Point{mk("HEF", 6), {Scheduler: "HEF", NumACs: 6, Frames: 3, Seed: 1,
		SeedForecasts: true, Scenario: "branchy-modes"}}
	res := []*sim.Result{new(sim.Result), new(sim.Result)}
	if err := rn.RunPointSet(context.Background(), mixed, sim.Options{}, res); err == nil ||
		!strings.Contains(err.Error(), "disagree on workload") {
		t.Errorf("mixed-scenario set: err = %v", err)
	}
}

// TestScenarioPointKeys: the scenario name participates in the content
// address, and its absence leaves legacy keys byte-identical (so every
// pre-existing cache entry stays valid).
func TestScenarioPointKeys(t *testing.T) {
	base := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 5, SeedForecasts: true}
	if k := base.Key(); strings.Contains(k, "scenario") {
		t.Errorf("non-scenario key mentions scenario: %s", k)
	}
	with := base
	with.Scenario = "video-crypto"
	if base.Hash() == with.Hash() {
		t.Error("scenario point hashes identical to H.264 point")
	}
	other := base
	other.Scenario = "video-pip"
	if with.Hash() == other.Hash() {
		t.Error("different scenarios share one hash")
	}
}

// TestCheckedScenarioExplore: a scenario sweep through the checked engine —
// every point validated against the oracle invariants under the scenario's
// (merged) ISA.
func TestCheckedScenarioExplore(t *testing.T) {
	eng := CheckedExplorer(Config{}, 2, nil)
	spec := explore.Spec{
		Schedulers: []string{"HEF", "Molen", "software"},
		ACs:        []int{8},
		Frames:     []int{3},
		Scenarios:  []string{"video-crypto", "scene-cut"},
	}
	res, err := eng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatalf("checked scenario sweep: %v", err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("got %d records, want 6", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.TotalCycles <= 0 {
			t.Errorf("point %s: non-positive cycles %d", rec.Point.Key(), rec.TotalCycles)
		}
	}
}
