package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is the environment record printed with every run: run-to-run
// comparisons are only meaningful on the same CPU, core count and Go.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	// CPUProbe is the single-core speed of a fixed integer loop at start,
	// in million iterations per second: on a shared machine it tells a
	// slow run from a slow program.
	CPUProbe float64 `json:"cpu_probe_mips"`
}

func environment(root, workload string, seed int64) env {
	return env{
		Workload:   workload,
		Seed:       seed,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		CPUProbe:   cpuProbe(),
	}
}

// probeSink keeps cpuProbe's loop from being optimized away.
var probeSink uint64

// cpuProbe runs a linear congruential loop for 200ms and returns its rate
// in million iterations per second.
func cpuProbe() float64 {
	const chunk = 1 << 16
	x, n := uint64(1), 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i := 0; i < chunk; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		n += chunk
	}
	probeSink = x
	return float64(n) / time.Since(start).Seconds() / 1e6
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out commit, or "unknown" when root is not
// the top of a git work tree (the benchmark also runs from plain source
// exports).
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// scratchDir makes a fresh directory under root/.bench_build for one run's
// files; the caller removes it.
func scratchDir(root, name string) (string, error) {
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return os.MkdirTemp(base, name+"-")
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// samples collects per-class latencies from concurrent clients, with the
// calibrations that normalize them (see speed.go).
type samples struct {
	mu     sync.Mutex
	by     map[string][]float64 // wall times in ms
	calibs []float64            // calibration times in ms
	timed  time.Duration        // timed work so far
	since  time.Duration        // timed work since the last calibration
}

// tick calibrates when calibEvery of timed work has run since the last
// calibration, or none has run yet. It must not run while operations are
// timed.
func (s *samples) tick() {
	if len(s.calibs) > 0 && s.since < calibEvery {
		return
	}
	s.calibs = append(s.calibs, ms(calibrate()))
	s.since = 0
}

// finish calibrates once more after the timed work.
func (s *samples) finish() { s.calibs = append(s.calibs, ms(calibrate())) }

// untilTick is the timed work left before the next calibration is due.
func (s *samples) untilTick() time.Duration { return calibEvery - s.since }

func (s *samples) add(class string, d time.Duration) {
	s.mu.Lock()
	if s.by == nil {
		s.by = make(map[string][]float64)
	}
	s.by[class] = append(s.by[class], ms(d))
	s.mu.Unlock()
}

// addTimed counts timed work.
func (s *samples) addTimed(d time.Duration) {
	s.timed += d
	s.since += d
}

// factor is the run's normalization: calibNominal over the median
// calibration, to the power calibElasticity.
func (s *samples) factor() float64 {
	return math.Pow(ms(calibNominal)/quantile(s.calibs, 0.5), calibElasticity)
}

// timedSeconds is the run's timed work, normalized.
func (s *samples) timedSeconds() float64 { return s.timed.Seconds() * s.factor() }

// putPercentiles stores class_p50_ms and class_p90_ms for each class,
// normalized.
func (s *samples) putPercentiles(vals map[string]float64, classes ...string) {
	for _, c := range classes {
		vals[c+"_p50_ms"] = quantile(s.by[c], 0.5) * s.factor()
		vals[c+"_p90_ms"] = quantile(s.by[c], 0.9) * s.factor()
	}
}

// note summarizes the samples behind the percentiles, their wall-time
// medians before normalization, and the calibrations.
func (s *samples) note(classes ...string) string {
	parts := make([]string, len(classes))
	for i, c := range classes {
		parts[i] = fmt.Sprintf("%s=%d (wall p50 %.4g ms)", c, len(s.by[c]), quantile(s.by[c], 0.5))
	}
	return fmt.Sprintf("samples %s; %d calibrations, median %.2f ms (nominal %.0f ms)",
		strings.Join(parts, " "), len(s.calibs), quantile(s.calibs, 0.5), ms(calibNominal))
}

// heapSampler tracks the peak Go heap in use (bytes of live and
// not-yet-collected objects) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			h.sample()
			select {
			case <-h.stop:
				h.sample()
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := readMetric(heapObjects).Uint64()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20)
}

// gcCPUSeconds is the process's cumulative GC CPU time.
func gcCPUSeconds() float64 {
	return readMetric("/cpu/classes/gc/total:cpu-seconds").Float64()
}

// closedLoop runs operations from, from+1, ... below n on the given
// number of clients, each client starting its next operation only when its
// previous one has finished, and starts none after the deadline. It
// returns the index after the last operation started.
func closedLoop(clients, from, n int, deadline time.Time, op func(i int)) int {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n)
}

// setupWarmups is how many set-ups repeatSetup runs before the ones it
// times: the first ones of a process also pay for faulting in code and
// growing the heap.
const setupWarmups = 3

// repeatSetup runs setup setupWarmups+n times, tearing down all but the
// last value, and returns the durations in seconds of the last n with that
// last value. prepare, when not nil, runs before each setup and is not
// timed.
func repeatSetup[T any](n int, prepare func() error, setup func() (T, error), teardown func(T)) ([]float64, T, error) {
	var last T
	var ds []float64
	for i := 0; i < setupWarmups+n; i++ {
		if prepare != nil {
			if err := prepare(); err != nil {
				return nil, last, err
			}
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		d := time.Since(start)
		if err != nil {
			return nil, last, err
		}
		if i >= setupWarmups {
			ds = append(ds, d.Seconds())
		}
		if i < setupWarmups+n-1 {
			teardown(v)
		}
		last = v
	}
	return ds, last, nil
}
