// Reuse-equivalence gate: a runtime that has already executed a workload
// and is then rerun (the simulator Resets it in place — the contract the
// rispp.Runner runtime pool is built on) must produce results field-exact
// identical to a freshly constructed runtime, including the JSONL journal
// byte for byte. Likewise the batched single-pass walk (sim.RunCompiledSet)
// must match sequential fresh runs. Both properties are checked over the
// oracle's seeded generators: hundreds of (hardware, workload, AC-count)
// configurations across all six run-time systems. A third corpus pins the
// scheduler kernels against the choose-based reference loop on the same
// generated hardware.
package oracle_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"rispp"
	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/oracle"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

const reuseSeeds = 100 // × len(oracle.Systems) = 600 triples

// checkpointSeeds sizes the generated scheduler-kernel corpus below.
const checkpointSeeds = 60

func newRuntime(t *testing.T, sys string, is *isa.ISA, acs int, tr *workload.Trace) sim.Runtime {
	t.Helper()
	rt, err := rispp.NewRuntime(rispp.Config{ISA: is, Workload: tr, Scheduler: sys, NumACs: acs, SeedForecasts: true})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestReuseEquivalenceGeneratedCorpus runs each generated configuration on
// a fresh runtime and on a runtime already dirtied by a previous full run,
// and requires every measurement artifact — cycles, stalls, per-SI splits,
// phases, timelines, histograms, journal bytes — to be identical.
func TestReuseEquivalenceGeneratedCorpus(t *testing.T) {
	opts := sim.Options{HistogramBucket: 50_000, Timeline: true}
	for seed := int64(0); seed < reuseSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := oracle.GenNumACs(r)
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range oracle.Systems {
			freshOpts, reusedOpts := opts, opts
			var freshJournal, reusedJournal bytes.Buffer
			freshOpts.Journal = &freshJournal
			reusedOpts.Journal = &reusedJournal

			fresh := newRuntime(t, sys, is, acs, tr)
			var want sim.Result
			if err := sim.RunCompiled(context.Background(), ct, fresh, freshOpts, &want); err != nil {
				t.Fatal(err)
			}

			reused := newRuntime(t, sys, is, acs, tr)
			var scratch sim.Result
			// Dirty the runtime with a full artifact-free run, then rerun
			// with the real options — the pool's reuse pattern.
			if err := sim.RunCompiled(context.Background(), ct, reused, sim.Options{}, &scratch); err != nil {
				t.Fatal(err)
			}
			var got sim.Result
			if err := sim.RunCompiled(context.Background(), ct, reused, reusedOpts, &got); err != nil {
				t.Fatal(err)
			}

			if err := oracle.DiffResults(&want, &got); err != nil {
				t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, acs, err)
			}
			if !bytes.Equal(freshJournal.Bytes(), reusedJournal.Bytes()) {
				t.Errorf("seed %d, system %s, %d ACs: journal bytes differ between fresh and reused runtime",
					seed, sys, acs)
			}
		}
	}
}

// TestRunCompiledSetEquivalenceGeneratedCorpus checks the single-pass
// multi-system walk on the generated corpus: batching all six systems over
// one shared compiled trace — on runtimes dirtied by prior sequential runs
// — must reproduce the sequential fresh-run results exactly.
func TestRunCompiledSetEquivalenceGeneratedCorpus(t *testing.T) {
	opts := sim.Options{HistogramBucket: 50_000, Timeline: true}
	for seed := int64(0); seed < reuseSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := oracle.GenNumACs(r)
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}
		rts := make([]sim.Runtime, len(oracle.Systems))
		want := make([]*sim.Result, len(oracle.Systems))
		got := make([]*sim.Result, len(oracle.Systems))
		for i, sys := range oracle.Systems {
			rts[i] = newRuntime(t, sys, is, acs, tr)
			want[i], got[i] = new(sim.Result), new(sim.Result)
			if err := sim.RunCompiled(context.Background(), ct, rts[i], opts, want[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.RunCompiledSet(context.Background(), ct, rts, opts, got); err != nil {
			t.Fatal(err)
		}
		for i, sys := range oracle.Systems {
			if err := oracle.DiffResults(want[i], got[i]); err != nil {
				t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, acs, err)
			}
		}
	}
}

// TestKernelEquivalenceGeneratedCorpus pins the specialized scheduler
// kernels against the reference loop on the oracle's generated hardware —
// a richer Molecule-library distribution than the sched package's own
// random ISAs.
func TestKernelEquivalenceGeneratedCorpus(t *testing.T) {
	names := []string{"FSFR", "ASF", "SJF", "HEF", "HEF-unnorm"}
	for seed := int64(0); seed < checkpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed + 7919))
		is := oracle.GenHardware(r)
		dim := len(is.Atoms)

		var reqs []sched.Request
		for j := range is.SIs {
			si := &is.SIs[j]
			reqs = append(reqs, sched.Request{
				SI:       si,
				Selected: si.Molecules[r.Intn(len(si.Molecules))],
				Expected: int64(r.Intn(5000)),
			})
		}
		avail := molecule.New(dim)
		for a := 0; a < dim; a++ {
			avail[a] = r.Intn(3)
		}

		for _, name := range names {
			s, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			got := sched.ScheduleInto(s, sched.NewScratch(), reqs, avail)
			want := sched.ScheduleReference(s, sched.NewScratch(), reqs, avail)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: kernel %v != reference %v", seed, name, got, want)
			}
			if err := sched.Valid(got, reqs, avail); err != nil {
				t.Errorf("seed %d, %s: invalid kernel schedule: %v", seed, name, err)
			}
		}
	}
}
