package search

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"rispp/internal/explore"
)

// fakeCycles is the synthetic objective of the search tests: deterministic,
// strictly decreasing along the (short) AC axis, with two pure-penalty axes
// (motion and scene changes) that guided strategies can descend, so the
// interesting region is rare under uniform sampling but easy to exploit.
func fakeCycles(p explore.Point) (int64, error) {
	if p.NumACs <= 0 {
		return 0, fmt.Errorf("bad point")
	}
	pen := int64(p.Motion*400) + int64(p.SceneChange)*150
	if p.Scheduler == "software" {
		return 5000 + pen, nil
	}
	off := map[string]int64{"HEF": 0, "Molen": 50, "FSFR": 120, "ASF": 200, "SJF": 260}[p.Scheduler]
	work := int64(1900 - 30*(p.NumACs-2)) // acs 2..20: 1900 down to 1360
	return work + off + pen, nil
}

// fakeEngine builds an engine over fakeCycles; workers sets the pool size.
func fakeEngine(workers int) *explore.Engine {
	run := func(ctx context.Context, p explore.Point) (explore.Metrics, error) {
		c, err := fakeCycles(p)
		if err != nil {
			return explore.Metrics{}, err
		}
		return explore.Metrics{TotalCycles: c, StallCycles: c / 10}, nil
	}
	return &explore.Engine{Run: run, Workers: workers}
}

// convergenceSpec is the ≥500-point joint space of the convergence and
// determinism tests: 5 schedulers × 7 AC budgets × 5 motion levels × 5
// scene-change counts = 875 points.
func convergenceSpec() explore.Spec {
	// Scheduler axis ordered by capability, so axis locality is meaningful
	// (adjacent schedulers have comparable cost/benefit).
	return explore.Spec{
		Schedulers:   []string{"software", "Molen", "HEF", "FSFR", "ASF"},
		ACs:          []int{2, 5, 8, 11, 14, 17, 20},
		Frames:       []int{1},
		Motion:       []float64{0, 0.25, 0.5, 0.75, 1},
		SceneChanges: []int{0, 1, 2, 3, 4},
	}
}

func frontFromPoints(pts []FrontPoint) *Front {
	f := &Front{}
	for _, p := range pts {
		f.Add(p)
	}
	return f
}

func TestRunDeterminism(t *testing.T) {
	spec := convergenceSpec()
	for _, strat := range StrategyNames() {
		t.Run(strat, func(t *testing.T) {
			type variant struct {
				name string
				eng  *explore.Engine
			}
			variants := []variant{
				{"plain", fakeEngine(1)},
				{"parallel", fakeEngine(8)},
			}
			var wantJournal, wantStream []byte
			var wantFront []FrontPoint
			for _, v := range variants {
				var journal, stream bytes.Buffer
				out, err := Run(context.Background(), v.eng, spec, Config{
					Strategy: strat, Seed: 7, Budget: 60, BatchSize: 16,
					Stream: &stream, Journal: &journal,
				})
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if out.Evaluated == 0 || out.Evaluated > 60 {
					t.Fatalf("%s: evaluated %d, want 1..60", v.name, out.Evaluated)
				}
				if wantJournal == nil {
					wantJournal, wantStream, wantFront = journal.Bytes(), stream.Bytes(), out.Front
					continue
				}
				if !bytes.Equal(journal.Bytes(), wantJournal) {
					t.Errorf("%s: journal bytes differ from plain run", v.name)
				}
				if !bytes.Equal(stream.Bytes(), wantStream) {
					t.Errorf("%s: stream bytes differ from plain run", v.name)
				}
				if FormatFront(out.Front) != FormatFront(wantFront) {
					t.Errorf("%s: front differs from plain run", v.name)
				}
			}

			// Warm cache over the same engine: journal must not change
			// (Eval.Cached is excluded from the serialization).
			eng := fakeEngine(4)
			cache, err := explore.OpenCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			eng.Cache = cache
			var cold, warm bytes.Buffer
			cfg := Config{Strategy: strat, Seed: 7, Budget: 60, BatchSize: 16}
			cfg.Journal = &cold
			if _, err := Run(context.Background(), eng, spec, cfg); err != nil {
				t.Fatal(err)
			}
			cfg.Journal = &warm
			warmOut, err := Run(context.Background(), eng, spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if warmOut.CacheHits == 0 {
				t.Error("second run over a warm cache reported no cache hits")
			}
			if !bytes.Equal(cold.Bytes(), warm.Bytes()) {
				t.Error("cold and warm journals differ")
			}
			if !bytes.Equal(cold.Bytes(), wantJournal) {
				t.Error("cached journal differs from cacheless journal")
			}
		})
	}
}

func TestRunJournalReplays(t *testing.T) {
	spec := convergenceSpec()
	for _, strat := range StrategyNames() {
		var journal bytes.Buffer
		out, err := Run(context.Background(), fakeEngine(4), spec, Config{
			Strategy: strat, Seed: 3, Budget: 40, Journal: &journal,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		rep, err := Replay(bytes.NewReader(journal.Bytes()))
		if err != nil {
			t.Fatalf("%s: replay: %v", strat, err)
		}
		if rep.Evaluated != out.Evaluated || rep.Proposed != out.Proposed || rep.Rounds != out.Rounds {
			t.Errorf("%s: replay counts %d/%d/%d, run %d/%d/%d", strat,
				rep.Evaluated, rep.Proposed, rep.Rounds, out.Evaluated, out.Proposed, out.Rounds)
		}
		if FormatFront(rep.Front) != FormatFront(out.Front) {
			t.Errorf("%s: replayed front differs from run front", strat)
		}

		// Tampering with any eval line must be detected: cycles=1 makes the
		// tampered point a front member the recorded front cannot contain.
		cyc := regexp.MustCompile(`"cycles":\d+`)
		lines := bytes.Split(bytes.TrimSpace(journal.Bytes()), []byte("\n"))
		for i, ln := range lines {
			if bytes.Contains(ln, []byte(`"type":"eval"`)) && !bytes.Contains(ln, []byte(`"err"`)) {
				lines[i] = cyc.ReplaceAll(ln, []byte(`"cycles":1`))
				break
			}
		}
		if _, err := Replay(bytes.NewReader(bytes.Join(lines, []byte("\n")))); err == nil {
			t.Errorf("%s: tampered journal replayed clean", strat)
		} else if !strings.Contains(err.Error(), "front") {
			t.Errorf("%s: tampered journal failed for the wrong reason: %v", strat, err)
		}
	}
}

func TestRunBudgetAndUniqueProposals(t *testing.T) {
	spec := convergenceSpec()
	for _, strat := range StrategyNames() {
		out, err := Run(context.Background(), fakeEngine(2), spec, Config{
			Strategy: strat, Seed: 11, Budget: 35, BatchSize: 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if out.Evaluated > 35 {
			t.Errorf("%s: evaluated %d over budget 35", strat, out.Evaluated)
		}
		seen := make(map[string]bool)
		for _, e := range out.Evals {
			k := e.Point.Key()
			if seen[k] {
				t.Errorf("%s: point %s evaluated twice", strat, k)
			}
			seen[k] = true
		}
	}
}

func TestRunExhaustsSmallSpace(t *testing.T) {
	spec := explore.Spec{
		Schedulers: []string{"HEF", "ASF"},
		ACs:        []int{2, 4, 6},
		Frames:     []int{1},
	}
	for _, strat := range StrategyNames() {
		out, err := Run(context.Background(), fakeEngine(1), spec, Config{
			Strategy: strat, Seed: 1, Budget: 100, BatchSize: 4,
		})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if out.Evaluated != 6 {
			t.Errorf("%s: evaluated %d of a 6-point space under a 100 budget", strat, out.Evaluated)
		}
		// At full coverage, every strategy's front is the true front.
		full, err := Run(context.Background(), fakeEngine(1), spec, Config{
			Strategy: "random", Seed: 99, Budget: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		if FormatFront(out.Front) != FormatFront(full.Front) {
			t.Errorf("%s: full-coverage front differs from true front", strat)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	eng := fakeEngine(1)
	if _, err := Run(context.Background(), eng, convergenceSpec(), Config{Strategy: "random"}); err == nil {
		t.Error("zero budget accepted")
	}
	if _, err := Run(context.Background(), eng, convergenceSpec(), Config{Strategy: "nope", Budget: 5}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestRunFailedPointsStayOffFront(t *testing.T) {
	// Invalid specs fail at space construction.
	bad := explore.Spec{Schedulers: []string{"HEF"}, ACs: []int{-1, 2}, Frames: []int{1}}
	if _, err := NewSpace(bad); err == nil {
		t.Fatal("negative AC budget must fail space construction")
	}

	// Runtime failures are journaled as failed evals and never enter the
	// front or abort the search.
	eng := &explore.Engine{Run: func(ctx context.Context, p explore.Point) (explore.Metrics, error) {
		if p.Scheduler == "ASF" {
			return explore.Metrics{}, fmt.Errorf("ASF backend down")
		}
		c, _ := fakeCycles(p)
		return explore.Metrics{TotalCycles: c}, nil
	}}
	spec := explore.Spec{Schedulers: []string{"HEF", "ASF"}, ACs: []int{2, 4}, Frames: []int{1}}
	out, err := Run(context.Background(), eng, spec, Config{Strategy: "random", Seed: 1, Budget: 4})
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed != 2 {
		t.Errorf("failed = %d, want 2", out.Failed)
	}
	for _, p := range out.Front {
		if p.Point.Scheduler == "ASF" {
			t.Errorf("failed point on the front: %s", p.Point.Key())
		}
	}
}

// TestConvergence pins the acceptance criterion: on a ≥500-point space,
// halving and evolve each reach a front that matches or dominates the
// random baseline's front at the same budget, while evaluating at most 20%
// of the grid.
func TestConvergence(t *testing.T) {
	spec := convergenceSpec()
	sp, err := NewSpace(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Len() < 500 {
		t.Fatalf("convergence space has %d points, want >= 500", sp.Len())
	}
	budget := sp.Len() / 5 // 20%
	for _, seed := range []int64{1, 2, 3} {
		fronts := make(map[string]*Front)
		for _, strat := range StrategyNames() {
			out, err := Run(context.Background(), fakeEngine(4), spec, Config{
				Strategy: strat, Seed: seed, Budget: budget,
			})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, strat, err)
			}
			if out.Evaluated > budget {
				t.Fatalf("seed %d %s: evaluated %d > budget %d", seed, strat, out.Evaluated, budget)
			}
			fronts[strat] = frontFromPoints(out.Front)
		}
		for _, guided := range []string{"halving", "evolve"} {
			if !fronts[guided].Covers(fronts["random"]) {
				t.Errorf("seed %d: %s front does not cover the random baseline front\n%s front:\n%s\nrandom front:\n%s",
					seed, guided, guided,
					FormatFront(fronts[guided].Points()), FormatFront(fronts["random"].Points()))
			}
		}
	}
}
