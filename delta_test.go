package rispp

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sim"
)

// deltaGrid is a budget sweep over all six systems: consecutive points
// differ only in NumACs.
func deltaGrid() []explore.Point {
	var pts []explore.Point
	for _, s := range []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"} {
		for _, acs := range []int{5, 10, 15, 24} {
			pts = append(pts, explore.Point{
				Scheduler: s, NumACs: acs, Frames: 1, SeedForecasts: true,
			})
		}
	}
	return pts
}

// TestDeltaSweepMatchesDisabled runs the same budget grid twice through one
// Runner and compares every point against a fresh Runner per pass, whose
// runtimes are all newly built: the second pass must reuse pooled runtimes
// and still give identical results.
func TestDeltaSweepMatchesDisabled(t *testing.T) {
	pts := deltaGrid()
	delta := NewRunner(Config{})

	for pass := 0; pass < 2; pass++ {
		plain := NewRunner(Config{})
		for i, p := range pts {
			want, got := new(sim.Result), new(sim.Result)
			if err := plain.RunPoint(context.Background(), p, sim.Options{}, want); err != nil {
				t.Fatalf("pass %d point %d: %v", pass, i, err)
			}
			if err := delta.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
				t.Fatalf("pass %d point %d: %v", pass, i, err)
			}
			if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles {
				t.Errorf("pass %d, %s/%d ACs: cycles %d/%d, want %d/%d",
					pass, p.Scheduler, p.NumACs, got.TotalCycles, got.StallCycles,
					want.TotalCycles, want.StallCycles)
			}
			if !reflect.DeepEqual(got.Executions(), want.Executions()) {
				t.Errorf("pass %d, %s/%d ACs: Executions differ", pass, p.Scheduler, p.NumACs)
			}
			if !reflect.DeepEqual(got.Phases, want.Phases) {
				t.Errorf("pass %d, %s/%d ACs: Phases differ", pass, p.Scheduler, p.NumACs)
			}
		}
	}
	// Pass 2 repeated every point on a pooled runtime.
	if hits, misses := delta.RuntimePoolStats(); hits != int64(len(pts)) || misses != int64(len(pts)) {
		t.Errorf("pool stats: hits=%d misses=%d, want %d/%d", hits, misses, len(pts), len(pts))
	}
}

// TestDeltaJournalBytes: repeating a point through a reused Runner (pooled
// runtime, recycled Result) must reproduce the journal byte-for-byte.
func TestDeltaJournalBytes(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	var first, second bytes.Buffer
	res := new(sim.Result)
	if err := rn.RunPoint(context.Background(), p, sim.Options{Journal: &first}, res); err != nil {
		t.Fatal(err)
	}
	if err := rn.RunPoint(context.Background(), p, sim.Options{Journal: &second}, res); err != nil {
		t.Fatal(err)
	}
	if hits, misses := rn.RuntimePoolStats(); hits != 1 || misses != 1 {
		t.Errorf("pool stats: hits=%d misses=%d, want 1/1", hits, misses)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("repeated journal differs from the first one (%d vs %d bytes)", second.Len(), first.Len())
	}
}

// TestDeltaDisabledForIneligibleCollect: histogram runs go through the
// runtime pool like every other point.
func TestDeltaDisabledForIneligibleCollect(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	res := new(sim.Result)
	for i := 0; i < 2; i++ {
		if err := rn.RunPoint(context.Background(), p, sim.Options{HistogramBucket: 100_000}, res); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := rn.RuntimePoolStats(); hits != 1 || misses != 1 {
		t.Errorf("pool stats: hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestDeltaTrailConcurrentUse shares one Runner between serve-style point
// traffic and sweeps walking the grid one scheduler group at a time, all
// budgets racing on the same compile memo and runtime pools, and checks
// every result against a reference from a separate Runner. Run under -race.
func TestDeltaTrailConcurrentUse(t *testing.T) {
	pts := deltaGrid()
	groups := map[string][]explore.Point{}
	for _, p := range pts {
		groups[p.Scheduler] = append(groups[p.Scheduler], p)
	}

	want := make(map[string]int64, len(pts))
	ref := NewRunner(Config{})
	for _, p := range pts {
		res := new(sim.Result)
		if err := ref.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		want[p.Normalized().Key()] = res.TotalCycles
	}

	shared := NewRunner(Config{})
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if g%2 == 0 { // serve traffic: single points, out of phase
					for off := 0; off < len(pts); off++ {
						p := pts[(g+off)%len(pts)]
						res := shared.GetResult()
						if err := shared.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if w := want[p.Normalized().Key()]; res.TotalCycles != w {
							t.Errorf("goroutine %d, %s/%d ACs: got %d cycles, want %d",
								g, p.Scheduler, p.NumACs, res.TotalCycles, w)
							return
						}
						shared.PutResult(res)
					}
					continue
				}
				for _, ps := range groups { // sweeps, one scheduler group at a time
					for _, p := range ps {
						res := shared.GetResult()
						if err := shared.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if w := want[p.Normalized().Key()]; res.TotalCycles != w {
							t.Errorf("goroutine %d, %s/%d ACs: got %d cycles, want %d",
								g, p.Scheduler, p.NumACs, res.TotalCycles, w)
							return
						}
						shared.PutResult(res)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
