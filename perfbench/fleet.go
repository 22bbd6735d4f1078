package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/serve"
)

// fleet is a coordinator plus its workers, built as load.RunFleet builds
// them: each worker is a risppserve with the real Runner and a tiered
// store (its own result cache, then the coordinator's as a peer).
type fleet struct {
	coord   *fabric.Coordinator
	nodes   []*node // coordinator first
	peers   []*fabric.Peer
	workers []*node
	dir     string
}

// fleetDir makes a scratch directory holding the coordinator's and the
// workers' result-cache directories. It runs before a timed set-up, not in
// it: on the shared disk the benchmark was built on, creating and removing
// directories took from under one to tens of milliseconds, more than
// starting the fleet.
func fleetDir(root string, workers int) (string, error) {
	dir, err := scratchDir(root, "fleet")
	if err != nil {
		return "", err
	}
	for i := 0; i <= workers; i++ {
		if err := os.Mkdir(filepath.Join(dir, cacheName(i)), 0o755); err != nil {
			os.RemoveAll(dir) //nolint:errcheck // best-effort scratch cleanup
			return "", err
		}
	}
	return dir, nil
}

// cacheName names node i's result-cache directory; node 0 is the
// coordinator.
func cacheName(i int) string {
	if i == 0 {
		return "coordinator"
	}
	return fmt.Sprintf("w%d", i)
}

// newFleet starts a fleet over the cache directories fleetDir made in dir;
// stopping it removes dir.
func newFleet(dir string, client *http.Client, workers int, wcfg serve.Config) (*fleet, error) {
	f := &fleet{coord: fabric.NewCoordinator(), dir: dir}
	f.coord.Logf = func(string, ...any) {}
	cache, err := explore.OpenCache(filepath.Join(dir, cacheName(0)))
	if err != nil {
		f.stop()
		return nil, err
	}
	cs := serve.New(serve.Config{}, rispp.Config{})
	cs.SetExploreCache(cache)
	cs.SetCoordinator(f.coord)
	cn, err := startNode(cs, client)
	if err != nil {
		f.stop()
		return nil, err
	}
	f.nodes = append(f.nodes, cn)
	for i := 1; i <= workers; i++ {
		local, err := explore.OpenCache(filepath.Join(dir, cacheName(i)))
		if err != nil {
			f.stop()
			return nil, err
		}
		peer := fabric.NewPeer(cn.url)
		ws := serve.New(wcfg, rispp.Config{})
		ws.SetExploreStore(&fabric.Tiered{Local: local, Peer: peer}, local)
		wn, err := startNode(ws, client)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, wn)
		f.workers = append(f.workers, wn)
		f.peers = append(f.peers, peer)
		if err := f.coord.Register(cacheName(i), wn.url); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // best-effort scratch cleanup
}

// sweepSpec is one fleet-sweep specification with its class.
type sweepSpec struct {
	class string
	spec  explore.Spec
	body  []byte
}

var fleetSystems = []string{"FSFR", "ASF", "SJF", "HEF", "Molen"}

// warmRepeats is how often a workload's cold and near specs are re-posted
// warm. A warm sweep takes a few milliseconds against about a second for a
// cold one, and one re-post per workload left a run with ~10 warm samples.
const warmRepeats = 4

// fleetSequence generates the specs of workloads from..from+n-1 of the
// seed's sequence; each workload has its own generator seed. A workload
// gets a cold sweep (5 systems × ACs 4–24 step 2, motion 0.3), a near sweep
// at the odd AC counts 5–23 (the workers' compile memo and checkpoint
// trails may help, no result cache holds the points), and warmRepeats warm
// re-posts of both (the result caches answer every point).
func fleetSequence(seed int64, from, n, frames int, evenACs, oddACs []int) []sweepSpec {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	base := rng.Int63n(1 << 40)
	var seq []sweepSpec
	for k := from; k < from+n; k++ {
		cold := explore.Spec{
			Schedulers:    fleetSystems,
			ACs:           evenACs,
			Frames:        []int{frames},
			Seeds:         []int64{base + int64(k)},
			Motion:        []float64{0.3},
			SeedForecasts: []bool{true},
		}
		near := cold
		near.ACs = oddACs
		specs := []sweepSpec{{class: "cold", spec: cold}, {class: "near", spec: near}}
		for r := 0; r < warmRepeats; r++ {
			specs = append(specs, sweepSpec{class: "warm", spec: cold}, sweepSpec{class: "warm", spec: near})
		}
		for _, s := range specs {
			b, err := json.Marshal(serve.ExploreRequest{Spec: s.spec})
			if err != nil {
				panic(err) // plain scalars; cannot fail
			}
			s.body = b
			seq = append(seq, s)
		}
	}
	return seq
}

type fleetSizing struct {
	frames          int
	evenACs, oddACs []int
	// roundSpecs is how many workloads one fleet sweeps before it is
	// replaced: the workers keep every workload they have simulated, so
	// this bounds heap_peak_mb independently of how fast sweeps run.
	roundSpecs int
	// tracedSpecs is how many workloads the traced run sweeps.
	tracedSpecs int
}

func fleetSize(cfg config) fleetSizing {
	if cfg.Tiny {
		return fleetSizing{frames: 2, evenACs: []int{4, 6}, oddACs: []int{5}, roundSpecs: 2, tracedSpecs: 1}
	}
	z := fleetSizing{frames: 140, roundSpecs: 2, tracedSpecs: 1}
	for n := 4; n <= 24; n++ {
		if n%2 == 0 {
			z.evenACs = append(z.evenACs, n)
		} else if n < 24 {
			z.oddACs = append(z.oddACs, n)
		}
	}
	return z
}

// sweep posts one spec to /v1/explore and returns the JSONL stream; a
// non-200 status or a stream shorter than the X-Points header is an error.
func sweep(client *http.Client, url string, body []byte) ([]byte, error) {
	resp, err := client.Post(url+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(out.Bytes()))
	}
	want, _ := strconv.Atoi(resp.Header.Get("X-Points"))
	if got := bytes.Count(out.Bytes(), []byte("\n")); got != want {
		return nil, fmt.Errorf("stream has %d of %d records", got, want)
	}
	return out.Bytes(), nil
}

// singleProcess computes the single-process JSONL stream of every spec in
// seq through eng, keyed by request body, with the time spent in Execute
// and the number of points it simulated. Without a cache, repeated specs
// run once (the streams are only references); with one, every spec runs,
// so a repeat is answered by the cache as on a worker.
func singleProcess(eng *explore.Engine, seq []sweepSpec) (map[string][]byte, time.Duration, int, error) {
	out := make(map[string][]byte)
	var total time.Duration
	simulated := 0
	for _, s := range seq {
		if _, ok := out[string(s.body)]; ok && eng.Cache == nil {
			continue
		}
		var buf bytes.Buffer
		start := time.Now()
		r, err := eng.Execute(context.Background(), s.spec, &buf)
		total += time.Since(start)
		if err != nil {
			return nil, 0, 0, err
		}
		if err := r.FirstErr(); err != nil {
			return nil, 0, 0, err
		}
		out[string(s.body)] = buf.Bytes()
		simulated += r.Summary.Simulated
	}
	return out, total, simulated, nil
}

// reference is the single-process engine the fleet's streams are checked
// against.
func reference() *explore.Engine {
	return rispp.Explorer(rispp.Config{}, runtime.GOMAXPROCS(0), nil)
}

// checkStreams compares each fleet stream with the single-process stream
// of the same spec.
func checkStreams(o *outcome, seq []sweepSpec, got [][]byte, want map[string][]byte) {
	for i, s := range seq {
		if got[i] != nil && !bytes.Equal(got[i], want[string(s.body)]) {
			o.fail("%s sweep %d: merged stream differs from the single-process stream", s.class, i)
		}
	}
}

// fleetSweep posts the seeded cold/near/warm spec sequence to the
// coordinator, one sweep at a time, until the run's time is up, replacing
// the fleet every roundSpecs workloads. Each merged stream must be
// byte-identical to a single-process stream of the same spec, computed
// after the timed region.
func fleetSweep(cfg config) (*outcome, error) {
	size := fleetSize(cfg)
	if cfg.Trace {
		return fleetTraced(cfg, size)
	}
	o := &outcome{Values: make(map[string]float64)}
	client := newClient(8)
	defer client.CloseIdleConnections()
	var dir string
	prepare := func() (err error) {
		dir, err = fleetDir(cfg.Root, 2)
		return err
	}
	setup := func() (*fleet, error) { return newFleet(dir, client, 2, serve.Config{}) }
	setups, f, err := repeatSetup(21, prepare, setup, (*fleet).stop)
	if err != nil {
		return nil, err
	}

	var seq []sweepSpec
	var streams [][]byte
	var s samples
	var peak float64
	for round := 0; s.timed < cfg.Seconds; round++ {
		if round > 0 {
			if err := prepare(); err != nil {
				return nil, err
			}
			start := time.Now()
			if f, err = setup(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		specs := fleetSequence(cfg.Seed, round*size.roundSpecs, size.roundSpecs, size.frames, size.evenACs, size.oddACs)
		heap := startHeapSampler()
		for _, sp := range specs {
			if s.timed >= cfg.Seconds {
				break
			}
			s.tick()
			// Each sweep starts from a collected heap, so that one sweep's
			// garbage does not tax the next.
			runtime.GC()
			t0 := time.Now()
			out, err := sweep(client, f.nodes[0].url, sp.body)
			d := time.Since(t0)
			s.addTimed(d)
			s.add(sp.class, d)
			o.Attempted++
			if err != nil {
				o.fail("%s sweep %d: %v", sp.class, len(seq), err)
			}
			seq = append(seq, sp)
			streams = append(streams, out)
		}
		peak = max(peak, heap.Stop())
		f.stop()
	}
	s.finish()
	o.Values["setup_s"] = quantile(setups, 0.5) * s.factor()
	o.Values["heap_peak_mb"] = peak

	want, _, _, err := singleProcess(reference(), seq)
	if err != nil {
		return nil, fmt.Errorf("single-process reference: %w", err)
	}
	checkStreams(o, seq, streams, want)
	o.Values["throughput_ops"] = float64(o.Attempted) / s.timedSeconds()
	o.Values["success_rate"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
	s.putPercentiles(o.Values, "cold", "near", "warm")
	o.Notes = append(o.Notes, s.note("cold", "near", "warm"))
	return o, nil
}

// fleetTraced attributes the sweeps of tracedSpecs workloads to their
// layers by peeling, after an unmeasured warm-up pass. Every pass runs one
// simulation at a time — one client, one worker, one exploration worker —
// so that each layer's time is serial and the self times add up to the top
// pass's wall time (with two workers the fleet would sweep in parallel and
// could beat the single worker it is peeled against):
//
//	top:    the sweeps through the coordinator of a fresh one-worker fleet;
//	worker: the same sweeps on a fresh worker's /v1/explore with its own
//	        result cache;
//	engine: the same sweeps through an exploration engine built as
//	        rispp.Explorer builds it, over a fresh Runner and result cache;
//	        it is also the single-process reference;
//	lower:  the points the engine simulated through lowerRunner, once plain
//	        and once with the hook timing decorator.
//
// The passes are repeated tracedReps times in turn and each keeps its
// fastest repetition.
func fleetTraced(cfg config, size fleetSizing) (*outcome, error) {
	o := &outcome{Values: make(map[string]float64)}
	client := newClient(8)
	defer client.CloseIdleConnections()
	seq := fleetSequence(cfg.Seed, 0, size.tracedSpecs, size.frames, size.evenACs, size.oddACs)
	serial := serve.Config{ExploreWorkers: 1}
	points, err := distinctPoints(seq)
	if err != nil {
		return nil, err
	}
	dir, err := scratchDir(cfg.Root, "fleet-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Warm-up: the first pass would also pay for growing the heap.
	want, _, _, err := singleProcess(reference(), seq)
	if err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}

	type topPass struct {
		rtt      time.Duration
		gc       float64
		counters map[string]float64
	}
	var top fastest[topPass]
	var engines fastest[*rispp.Runner]
	inWorker := time.Duration(math.MaxInt64)
	var lower lowerBest
	for rep := 0; rep < tracedReps; rep++ {
		cache, err := explore.OpenCache(filepath.Join(dir, fmt.Sprintf("engine%d", rep)))
		if err != nil {
			return nil, err
		}
		runner := rispp.NewRunner(rispp.Config{})
		eng := &explore.Engine{Workers: 1, Run: runner.EngineRun(), RunSet: runner.EngineRunSet(), Cache: cache}
		runtime.GC()
		got, inEngine, simulated, err := singleProcess(eng, seq)
		if err != nil {
			return nil, fmt.Errorf("engine pass: %w", err)
		}
		engines.offer(runner, inEngine)
		o.Attempted += len(seq)
		for _, s := range seq {
			if !bytes.Equal(got[string(s.body)], want[string(s.body)]) {
				o.fail("engine pass: %s stream differs from the single-process stream", s.class)
			}
		}
		if len(points) != simulated {
			o.fail("engine pass simulated %d points, the lower pass runs %d", simulated, len(points))
		}

		ls, walls, err := lowerPasses(points)
		if err != nil {
			return nil, err
		}
		lower.offer(ls, walls)

		wcache, err := explore.OpenCache(filepath.Join(dir, fmt.Sprintf("worker%d", rep)))
		if err != nil {
			return nil, err
		}
		ws := serve.New(serial, rispp.Config{})
		ws.SetExploreCache(wcache)
		wn, err := startNode(ws, client)
		if err != nil {
			return nil, err
		}
		d, streams, err := timedSweeps(client, wn.url, seq)
		wn.stop()
		if err != nil {
			return nil, fmt.Errorf("worker pass: %w", err)
		}
		inWorker = min(inWorker, d)
		o.Attempted += len(seq)
		checkStreams(o, seq, streams, want)

		fdir, err := fleetDir(cfg.Root, 1)
		if err != nil {
			return nil, err
		}
		f, err := newFleet(fdir, client, 1, serial)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		gc0 := gcCPUSeconds()
		start := time.Now()
		rtt, streams, err := timedSweeps(client, f.nodes[0].url, seq)
		wall := time.Since(start)
		gc := gcCPUSeconds() - gc0
		counters := make(map[string]float64)
		fleetCounters(counters, f)
		f.stop()
		if err != nil {
			return nil, fmt.Errorf("fleet pass: %w", err)
		}
		top.offer(topPass{rtt, gc, counters}, wall)
		o.Attempted += len(seq)
		checkStreams(o, seq, streams, want)
	}

	maps.Copy(o.Values, top.v.counters)
	hits, misses := engines.v.RuntimePoolStats()
	o.Values["rispp.pool_hits"] = float64(hits)
	o.Values["rispp.pool_misses"] = float64(misses)
	serves, resumes, records := engines.v.DeltaStats()
	o.Values["rispp.trail_serves"] = float64(serves)
	o.Values["rispp.trail_resumes"] = float64(resumes)
	o.Values["rispp.trail_records"] = float64(records)
	o.Values["go.gc_cpu_s"] = top.v.gc

	lower.put(o.Values)
	o.Values["fabric.self_ms"] = ms(top.v.rtt - inWorker)
	o.Values["serve.explore_self_ms"] = ms(inWorker - engines.wall)
	o.Values["explore.execute_ms"] = ms(engines.wall)
	o.Values["rispp.self_ms"] = ms(engines.wall - lower[0].v.spans())
	o.Values["trace.wall_ms"] = ms(top.wall)
	checkAttribution(o, top.wall-top.v.rtt, top.wall)
	return o, nil
}

// distinctPoints lists every point of seq's specs once, in order: the
// points an engine with a result cache simulates.
func distinctPoints(seq []sweepSpec) ([]explore.Point, error) {
	var out []explore.Point
	seen := make(map[string]bool)
	for _, s := range seq {
		pts, err := s.spec.Expand()
		if err != nil {
			return nil, err
		}
		for _, p := range pts {
			if k := p.Key(); !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
	}
	return out, nil
}

// timedSweeps posts every spec in order and returns the summed round-trip
// time and the streams.
func timedSweeps(client *http.Client, url string, seq []sweepSpec) (time.Duration, [][]byte, error) {
	var total time.Duration
	streams := make([][]byte, len(seq))
	for i, s := range seq {
		t0 := time.Now()
		out, err := sweep(client, url, s.body)
		total += time.Since(t0)
		if err != nil {
			return 0, nil, fmt.Errorf("%s sweep %d: %w", s.class, i, err)
		}
		streams[i] = out
	}
	return total, streams, nil
}

// fleetCounters reads the fabric's counters: the coordinator's shard
// retries and worker failures, the workers' peer-tier outcomes, and the
// workers' simulated and cache-answered records.
func fleetCounters(vals map[string]float64, f *fleet) {
	retries, failures := f.coord.Stats()
	vals["fabric.shard_retries"] = float64(retries)
	vals["fabric.worker_failures"] = float64(failures)
	for _, p := range f.peers {
		hits, misses, errs := p.Stats()
		vals["fabric.peer_hits"] += float64(hits)
		vals["fabric.peer_misses"] += float64(misses)
		vals["fabric.peer_errs"] += float64(errs)
	}
	for _, w := range f.workers {
		text := w.srv.Metrics()
		vals["explore.simulated"] += promValue(text, "rispp_explore_simulated_total")
		vals["explore.cache_hits"] += promValue(text, "rispp_explore_cache_hits_total")
	}
}
