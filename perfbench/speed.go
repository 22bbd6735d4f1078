package main

import (
	"runtime"
	"sync"
	"time"
)

// Machine-speed normalization.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes: other tenants load the shared cores, caches and
// memory. In back-to-back runs of the same binary the Fig. 7 sweep took
// 750–1,300 ms, and the drift moved whole runs, so medians over a run
// could not hide it. Every calibEvery of timed work the benchmark
// therefore pauses the timed operations and runs a fixed calibration
// kernel (calibKernel) that shares no code with the program. Reported
// times are normalized: wall time × (calibNominal ÷ the run's median
// calibration)^calibElasticity, the time the same work would take when
// the kernel takes calibNominal. A change in the program moves the
// normalized times; a change in the machine's speed moves the kernel's
// time too and cancels out. One factor per run, not one per operation: a
// single calibration is as noisy as a single operation, and the median of
// a run's calibrations is not.

// calibEvery is the timed work between two calibrations.
const calibEvery = 500 * time.Millisecond

// calibNominal is the kernel's time on the 2-vCPU Intel Xeon the
// benchmark was built on; it only sets the scale.
const calibNominal = 30 * time.Millisecond

// calibElasticity is how much more than the kernel the workloads slow
// down when the machine does, on a log scale. The kernel runs from
// registers; the workloads also wait for caches and memory that other
// tenants share. Over 30 runs of the three workloads and 10 more of
// paper-cold, the wall-time medians' spread was smallest at 1.5–2 for
// paper-cold and serve-mix and at 0.5–1.5 for fleet-sweep.
const calibElasticity = 1.5

// calibProcs bounds the goroutines the kernel runs on: the workloads run
// at most two clients, sweep workers or fleet workers at a time.
const calibProcs = 4

// calibSink keeps the kernel's results alive.
var calibSink [calibProcs]uint64

// calibKernel runs a fixed chain of 2^24 dependent integer multiply-adds
// (a linear congruential generator, as cpuProbe): it measures how fast a
// core runs instructions, and touches no memory. A kernel that chases
// pointers through a megabyte moves two to three times as much as the
// workloads do under other tenants' cache contention.
func calibKernel(p int) {
	x := uint64(p + 1)
	for i := 0; i < 1<<24; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calibSink[p] = x
}

// calibrate runs the kernel on min(GOMAXPROCS, calibProcs) goroutines at
// once and returns the wall time until all finish.
func calibrate() time.Duration {
	procs := min(runtime.GOMAXPROCS(0), calibProcs)
	var wg sync.WaitGroup
	start := time.Now()
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibKernel(p)
		}()
	}
	wg.Wait()
	return time.Since(start)
}
