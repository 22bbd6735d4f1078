package search

import (
	"context"
	"testing"
)

// BenchmarkSearchDriver measures the search machinery itself — proposal
// generation, front maintenance, journal encoding — over an instant
// synthetic engine, so the number tracks strategy overhead per completed
// search rather than simulator speed. One op = one full 60-evaluation
// budget over the 875-point convergence space.
func BenchmarkSearchDriver(b *testing.B) {
	spec := convergenceSpec()
	for _, strat := range StrategyNames() {
		b.Run(strat, func(b *testing.B) {
			eng := fakeEngine(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Run(context.Background(), eng, spec, Config{
					Strategy: strat, Seed: 7, Budget: 60,
				})
				if err != nil {
					b.Fatal(err)
				}
				if out.Evaluated == 0 {
					b.Fatal("no evaluations")
				}
			}
		})
	}
}
