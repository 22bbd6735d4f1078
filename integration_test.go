package rispp_test

import (
	"testing"

	"rispp"
	"rispp/internal/experiments"
	"rispp/internal/video"
)

// TestPaperReproduction runs the complete Table 2 experiment (140 CIF
// frames, ACs 5–24) and asserts the headline shapes of the paper. It takes
// several seconds; skip with `go test -short`.
func TestPaperReproduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full 140-frame sweep; skipped with -short")
	}
	r := experiments.Table2(experiments.Params{})
	last := len(r.ACs) - 1

	// Paper: average HEF vs Molen 1.71x; ours lands within ±0.15.
	if r.AvgHEFvsMolen < 1.5 || r.AvgHEFvsMolen > 1.9 {
		t.Errorf("avg HEF vs Molen = %.2f, want ≈1.7 (paper 1.71)", r.AvgHEFvsMolen)
	}
	// Paper: maximum 2.38x at 24 ACs; ours must exceed 2x there.
	if r.HEFvsMolen[last] < 2.0 {
		t.Errorf("HEF vs Molen at %d ACs = %.2f, want > 2.0 (paper 2.38)", r.ACs[last], r.HEFvsMolen[last])
	}
	// Growth from ≈1x at 5 ACs to the maximum.
	if r.HEFvsMolen[0] > 1.2 {
		t.Errorf("HEF vs Molen at 5 ACs = %.2f, want ≈1.05 (paper 1.09)", r.HEFvsMolen[0])
	}
	for i := range r.ACs {
		if r.HEFvsASF[i] < 0.995 {
			t.Errorf("ACs=%d: HEF slower than ASF (%.3f)", r.ACs[i], r.HEFvsASF[i])
		}
		if r.ASFvsMolen[i] < 1.0 {
			t.Errorf("ACs=%d: ASF slower than Molen (%.3f)", r.ACs[i], r.ASFvsMolen[i])
		}
	}
}

// TestVideoDrivenEndToEnd exercises the full stack — synthetic video,
// motion-search front end, derived trace, RISPP runtime — and checks HEF
// still beats the baseline on content-dependent workloads.
func TestVideoDrivenEndToEnd(t *testing.T) {
	scene := video.Scene{Seed: 1, Objects: 4, PanX: 1.5, SceneChangeFrame: 4}
	tr := video.Trace(video.TraceConfig{Scene: scene, Frames: 6})

	totals := map[string]int64{}
	for _, system := range []string{"HEF", "Molen", "software"} {
		res, err := rispp.Run(rispp.Config{Workload: tr, Scheduler: system, NumACs: 12, SeedForecasts: true})
		if err != nil {
			t.Fatal(err)
		}
		totals[system] = res.TotalCycles
	}
	if totals["HEF"] >= totals["Molen"] {
		t.Errorf("HEF (%d) not faster than Molen (%d) on video-derived trace", totals["HEF"], totals["Molen"])
	}
	if totals["Molen"] >= totals["software"] {
		t.Errorf("Molen (%d) not faster than software (%d)", totals["Molen"], totals["software"])
	}
}
