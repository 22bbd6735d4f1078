package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/scenario"
	"rispp/internal/serve"
	"rispp/internal/sim"
)

// node is one in-process risppserve instance on a loopback listener.
type node struct {
	srv  *serve.Server
	url  string
	done chan error
}

// startNode serves srv on a fresh loopback port and waits until it
// answers its health check.
func startNode(srv *serve.Server, client *http.Client) (*node, error) {
	srv.Logf = func(string, ...any) {}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	resp, err := client.Get(n.url + "/v1/healthz")
	if err != nil {
		n.stop()
		return nil, fmt.Errorf("health check: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for keep-alive
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.stop()
		return nil, fmt.Errorf("health check: status %d", resp.StatusCode)
	}
	return n, nil
}

// stop drains the server and waits for its serve loop to return.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx) //nolint:errcheck // a failed drain still closes the listener
	<-n.done
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}
}

// post sends a JSON body and returns the status and the full response; a
// transport error is status 0 with the error as the body.
func post(client *http.Client, url string, body []byte) (int, []byte) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, b
}

// simRequest is one /v1/simulate request of the serve-mix sequence.
type simRequest struct {
	class string // "cold", "near" or "warm" (an exact repeat)
	pt    explore.Point
	body  []byte
}

// serveSystems are the six run-time systems a request may name.
var serveSystems = []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"}

var serveFrames = []int{2, 4, 8, 16, 32}

// system is a run-time system with its Atom-Container budget.
type system struct {
	scheduler string
	acs       int
}

// warmLag keeps an exact repeat this many requests behind the request it
// repeats, so that with two clients the original has usually completed
// and the response cache, not single-flight coalescing, answers it.
const warmLag = 8

// serveSequence generates one round's request sequence from the seed. The
// classes come in roughly equal thirds:
//
//	cold: a never-seen workload — a fresh generator seed with motion > 0,
//	      frames from serveFrames, any system, 4–24 ACs; one in five is a
//	      shipped scenario instead of the H.264 generator;
//	near: an already-requested workload with a new system/AC pair (the
//	      compile memo and runtime pool may answer, the response cache
//	      may not);
//	warm: an exact repeat of a request at least warmLag positions back.
func serveSequence(seed int64, round, n int, frames []int) []simRequest {
	rng := rand.New(rand.NewSource(seed*7919 + int64(round)))
	scenarios := scenario.Names()
	nextSeed := rng.Int63n(1 << 40)
	var seq []simRequest
	var colds []explore.Point
	used := make(map[workKey]map[system]bool)
	for i := 0; i < n; i++ {
		class := [3]string{"cold", "near", "warm"}[rng.Intn(3)]
		if len(colds) == 0 || (class == "warm" && i < warmLag) {
			class = "cold"
		}
		var pt explore.Point
		switch class {
		case "cold":
			nextSeed++
			pt = explore.Point{
				Scheduler:     serveSystems[rng.Intn(len(serveSystems))],
				NumACs:        4 + rng.Intn(21),
				Frames:        frames[rng.Intn(len(frames))],
				Seed:          nextSeed,
				SeedForecasts: true,
			}
			if rng.Intn(5) == 0 {
				pt.Scenario = scenarios[rng.Intn(len(scenarios))]
			} else {
				pt.Motion = float64(1+rng.Intn(5)) / 10
			}
			colds = append(colds, pt)
			used[workOf(pt)] = map[system]bool{{pt.Scheduler, pt.NumACs}: true}
		case "near":
			base := colds[rng.Intn(len(colds))]
			pt = base
			for tries := 0; tries < 50; tries++ {
				pt.Scheduler = serveSystems[rng.Intn(len(serveSystems))]
				pt.NumACs = 4 + rng.Intn(21)
				if !used[workOf(base)][system{pt.Scheduler, pt.NumACs}] {
					break
				}
			}
			used[workOf(base)][system{pt.Scheduler, pt.NumACs}] = true
		case "warm":
			pt = seq[rng.Intn(i-warmLag+1)].pt
		}
		body, err := json.Marshal(serve.SimulateRequest{Point: pt})
		if err != nil {
			panic(err) // plain scalars; cannot fail
		}
		seq = append(seq, simRequest{class: class, pt: pt, body: body})
	}
	return seq
}

// simBody is the part of a /v1/simulate response the checks compare.
type simBody struct {
	Cycles int64 `json:"cycles"`
	Stall  int64 `json:"stall_cycles"`
	SW     int64 `json:"sw_execs"`
	HW     int64 `json:"hw_execs"`
}

func (b simBody) metrics() explore.Metrics {
	return explore.Metrics{TotalCycles: b.Cycles, StallCycles: b.Stall, SWExecutions: b.SW, HWExecutions: b.HW}
}

// bodyLog keeps the first body served for each point; every later body for
// the same point must be byte-identical to it.
type bodyLog struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (l *bodyLog) record(key string, body []byte) (same bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.first == nil {
		l.first = make(map[string][]byte)
	}
	if prev, ok := l.first[key]; ok {
		return bytes.Equal(prev, body)
	}
	l.first[key] = body
	return true
}

// serveSizing is the round shape of serve-mix.
type serveSizing struct {
	roundLen int
	frames   []int
}

func serveSize(cfg config) serveSizing {
	if cfg.Tiny {
		return serveSizing{roundLen: 24, frames: []int{2, 4}}
	}
	// The round length bounds the distinct workloads one server sees: the
	// Runner keeps every workload it has compiled, and a round's third of
	// cold requests is what heap_peak_mb grows with.
	return serveSizing{roundLen: 450, frames: serveFrames}
}

// serveMix drives an in-process risppserve with two closed-loop clients
// over rounds of the seeded request sequence, a fresh server per round,
// until the run's time is up. Every response is checked after its round:
// cold and near bodies against the reference decomposition of the same
// point (itself validated by the oracle), repeats byte for byte.
func serveMix(cfg config) (*outcome, error) {
	size := serveSize(cfg)
	if cfg.Trace {
		return serveTraced(cfg, size)
	}
	o := &outcome{Values: make(map[string]float64)}
	client := newClient(4)
	defer client.CloseIdleConnections()
	setup := func() (*node, error) { return startNode(serve.New(serve.Config{}, rispp.Config{}), client) }

	setups, n, err := repeatSetup(21, nil, setup, func(n *node) { n.stop() })
	if err != nil {
		return nil, err
	}
	var s samples
	var peak float64
	rounds := 0
	for ; s.timed < cfg.Seconds; rounds++ {
		if rounds > 0 {
			start := time.Now()
			if n, err = setup(); err != nil {
				return nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		seq := serveSequence(cfg.Seed, rounds, size.roundLen, size.frames)
		status := make([]int, len(seq))
		bodies := make([][]byte, len(seq))
		runtime.GC()
		heap := startHeapSampler()
		// The clients pause only for a calibration (see speed.go).
		done := 0
		for done < len(seq) && s.timed < cfg.Seconds {
			s.tick()
			start := time.Now()
			done = closedLoop(2, done, len(seq), start.Add(min(s.untilTick(), cfg.Seconds-s.timed)), func(i int) {
				t0 := time.Now()
				status[i], bodies[i] = post(client, n.url+"/v1/simulate", seq[i].body)
				s.add(seq[i].class, time.Since(t0))
			})
			s.addTimed(time.Since(start))
		}
		peak = max(peak, heap.Stop())
		n.stop()
		o.Attempted += done
		checkServeRound(o, seq[:done], status, bodies)
	}
	s.finish()
	o.Values["setup_s"] = quantile(setups, 0.5) * s.factor()
	o.Values["heap_peak_mb"] = peak
	o.Values["throughput_ops"] = float64(o.Attempted) / s.timedSeconds()
	o.Values["success_rate"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
	s.putPercentiles(o.Values, "cold", "near", "warm")
	o.Notes = append(o.Notes, s.note("cold", "near", "warm"), fmt.Sprintf("rounds %d of at most %d requests", rounds, size.roundLen))
	return o, nil
}

// checkServeRound verifies one round's responses: every status is 200,
// every body of a point is byte-identical to its first, and each distinct
// point's metrics equal the reference decomposition's.
func checkServeRound(o *outcome, seq []simRequest, status []int, bodies [][]byte) {
	var log bodyLog
	want := make(map[string]explore.Point)
	for i, r := range seq {
		if status[i] != http.StatusOK {
			o.fail("%s request %d: status %d: %s", r.class, i, status[i], firstLine(bodies[i]))
			continue
		}
		key := r.pt.Key()
		if !log.record(key, bodies[i]) {
			o.fail("%s request %d: body differs from the first body served for %s", r.class, i, key)
			continue
		}
		want[key] = r.pt
	}
	refs, err := referenceMetrics(want)
	if err != nil {
		o.fail("reference: %v", err)
		return
	}
	for key := range want {
		var got simBody
		if err := json.Unmarshal(log.first[key], &got); err != nil {
			o.fail("point %s: bad body: %v", key, err)
		} else if ref := refs[key]; got.metrics() != ref {
			o.fail("point %s: served %+v, reference %+v", key, got.metrics(), ref)
		}
	}
}

// referenceMetrics runs every point on the reference path (lowerRunner,
// oracle-checked) on two goroutines, each owning whole workloads so that
// it generates every trace it needs once.
func referenceMetrics(points map[string]explore.Point) (map[string]explore.Metrics, error) {
	const workers = 2
	var parts [workers][]explore.Point
	owner := make(map[workKey]int)
	for _, pt := range points {
		w, ok := owner[workOf(pt)]
		if !ok {
			w = len(owner) % workers
			owner[workOf(pt)] = w
		}
		parts[w] = append(parts[w], pt)
	}
	out := make(map[string]explore.Metrics, len(points))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part []explore.Point) {
			defer wg.Done()
			l := newLowerRunner(false)
			for _, pt := range part {
				m, err := l.check(context.Background(), pt)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				out[pt.Key()] = m
				mu.Unlock()
			}
		}(part)
	}
	wg.Wait()
	return out, firstErr
}

func firstLine(b []byte) string {
	s, _, _ := strings.Cut(string(b), "\n")
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

// serveTraced attributes one round of the sequence to its layers by
// peeling, on one client so that the layers' times add up to the wall
// time, after an unmeasured warm-up round:
//
//	top:    the round over HTTP against a fresh server; per-request
//	        round-trip times, and the server's own time from its
//	        rispp_endpoint_latency_seconds series;
//	runner: the points that reached the server's Runner (the first request
//	        of each point) through a fresh rispp.Runner's RunPoint;
//	lower:  the same points through lowerRunner, once plain and once with
//	        the hook timing decorator.
//
// The passes are repeated tracedReps times in turn and each keeps its
// fastest repetition.
func serveTraced(cfg config, size serveSizing) (*outcome, error) {
	o := &outcome{Values: make(map[string]float64)}
	client := newClient(2)
	defer client.CloseIdleConnections()
	seq := serveSequence(cfg.Seed, 0, size.roundLen, size.frames)
	var misses []explore.Point
	seen := make(map[string]bool)
	for _, r := range seq {
		if k := r.pt.Key(); !seen[k] {
			seen[k] = true
			misses = append(misses, r.pt)
		}
	}
	// A warm-up round on its own server: the first round would also pay
	// for growing the heap, which the later passes would not.
	n, err := startNode(serve.New(serve.Config{}, rispp.Config{}), client)
	if err != nil {
		return nil, err
	}
	for _, r := range seq {
		post(client, n.url+"/v1/simulate", r.body)
	}
	n.stop()

	type topPass struct {
		rtt     time.Duration
		gc      float64
		metrics string
	}
	var top fastest[topPass]
	var runners fastest[*rispp.Runner]
	var lower lowerBest
	for rep := 0; rep < tracedReps; rep++ {
		n, err := startNode(serve.New(serve.Config{}, rispp.Config{}), client)
		if err != nil {
			return nil, err
		}
		status := make([]int, len(seq))
		bodies := make([][]byte, len(seq))
		var rtt time.Duration
		runtime.GC()
		gc0 := gcCPUSeconds()
		start := time.Now()
		for i, r := range seq {
			t0 := time.Now()
			status[i], bodies[i] = post(client, n.url+"/v1/simulate", r.body)
			rtt += time.Since(t0)
		}
		wall := time.Since(start)
		top.offer(topPass{rtt, gcCPUSeconds() - gc0, n.srv.Metrics()}, wall)
		n.stop()
		o.Attempted += len(seq)
		checkServeRound(o, seq, status, bodies)

		runner := rispp.NewRunner(rispp.Config{})
		res := runner.GetResult()
		runtime.GC()
		start = time.Now()
		for _, pt := range misses {
			if err := runner.RunPoint(context.Background(), pt, sim.Options{}, res); err != nil {
				return nil, fmt.Errorf("runner pass %s: %w", pt.Key(), err)
			}
		}
		runners.offer(runner, time.Since(start))
		runner.PutResult(res)

		ls, walls, err := lowerPasses(misses)
		if err != nil {
			return nil, err
		}
		lower.offer(ls, walls)
	}

	text := top.v.metrics
	server := time.Duration(promValue(text, `rispp_endpoint_latency_seconds_sum{route="/v1/simulate"}`) * 1e9)
	o.Values["serve.cache_hits"] = promValue(text, `rispp_simulate_cache_total{outcome="hit"}`)
	o.Values["serve.cache_misses"] = promValue(text, `rispp_simulate_cache_total{outcome="miss"}`)
	o.Values["rispp.pool_hits"] = promValue(text, `rispp_runtime_pool_total{outcome="hit"}`)
	o.Values["rispp.pool_misses"] = promValue(text, `rispp_runtime_pool_total{outcome="miss"}`)
	o.Values["serve.shed"] = promSum(text, "rispp_tenant_shed_total")
	serves, resumes, records := runners.v.DeltaStats()
	o.Values["rispp.trail_serves"] = float64(serves)
	o.Values["rispp.trail_resumes"] = float64(resumes)
	o.Values["rispp.trail_records"] = float64(records)
	o.Values["go.gc_cpu_s"] = top.v.gc

	lower.put(o.Values)
	o.Values["http.transport_ms"] = ms(top.v.rtt - server)
	o.Values["serve.handler_self_ms"] = ms(server - runners.wall)
	o.Values["rispp.self_ms"] = ms(runners.wall - lower[0].v.spans())
	o.Values["trace.wall_ms"] = ms(top.wall)
	checkAttribution(o, top.wall-top.v.rtt, top.wall)
	return o, nil
}

// promValue reads one series (name plus label set, exactly as exposed)
// from a Prometheus text exposition; 0 when absent.
func promValue(text, series string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// promSum adds every labelled series of a metric family.
func promSum(text, name string) float64 {
	var sum float64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+"{") {
			if f, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
				sum += f
			}
		}
	}
	return sum
}
