package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg, rispp.Config{})
	s.Logf = t.Logf
	return s
}

// postJSON is goroutine-safe (several tests post from helpers), so it
// panics rather than calling t.Fatal on the can't-happen marshal error.
func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeSimulate(t *testing.T, w *httptest.ResponseRecorder) SimulateResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", w.Code, w.Body.String())
	}
	var resp SimulateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp
}

// TestSimulateMatchesRun is the acceptance gate: the service must answer
// the paper's H.264 workload with exactly the numbers rispp.Run (and
// therefore risppsim) produces for the same scheduler/AC configuration.
func TestSimulateMatchesRun(t *testing.T) {
	frames := 140
	if testing.Short() {
		frames = 5
	}
	s := newTestServer(t, Config{})
	for _, scheduler := range []string{"HEF", "Molen", "software"} {
		w := postJSON(t, s.Handler(), "/v1/simulate", SimulateRequest{
			Point: explore.Point{Scheduler: scheduler, NumACs: 10, Frames: frames, SeedForecasts: true},
		})
		got := decodeSimulate(t, w)

		want, err := rispp.Run(rispp.Config{Scheduler: scheduler, NumACs: 10, SeedForecasts: true,
			Workload: nil, ISA: nil, Collect: sim.Options{}})
		if frames != 140 {
			want, err = rispp.Run(rispp.Config{Scheduler: scheduler, NumACs: 10, SeedForecasts: true,
				Workload: workloadFrames(frames)})
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalCycles != want.TotalCycles {
			t.Errorf("%s: served cycles %d, direct run %d", scheduler, got.TotalCycles, want.TotalCycles)
		}
		if got.StallCycles != want.StallCycles {
			t.Errorf("%s: served stall %d, direct run %d", scheduler, got.StallCycles, want.StallCycles)
		}
		if got.SWExecutions != want.TotalSWExecutions() || got.HWExecutions != want.TotalHWExecutions() {
			t.Errorf("%s: served sw/hw %d/%d, direct run %d/%d", scheduler,
				got.SWExecutions, got.HWExecutions, want.TotalSWExecutions(), want.TotalHWExecutions())
		}
		if got.Runtime != want.Runtime {
			t.Errorf("%s: served runtime %q, direct run %q", scheduler, got.Runtime, want.Runtime)
		}
		if len(got.SIs) == 0 {
			t.Errorf("%s: no per-SI stats", scheduler)
		}
		for _, si := range got.SIs {
			if n := want.ExecutionsOf(isaSIID(si.SI)); n != si.Executions {
				t.Errorf("%s: SI %d executions %d, want %d", scheduler, si.SI, si.Executions, n)
			}
		}
	}
}

func TestSimulateCollectArtifacts(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/simulate", SimulateRequest{
		Point:   explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true},
		Collect: CollectSpec{HistogramBucket: 100_000, Timeline: true},
	})
	resp := decodeSimulate(t, w)
	if resp.HistogramBucket != 100_000 || len(resp.Histograms) == 0 {
		t.Errorf("missing histograms: bucket %d, %d series", resp.HistogramBucket, len(resp.Histograms))
	}
	if len(resp.Timeline) == 0 {
		t.Error("missing timeline steps")
	}
}

func TestSimulateValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxFrames: 500})
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"scheduler":`},
		{"unknown field", `{"scheduler":"HEF","warp_factor":9}`},
		{"unknown scheduler", `{"scheduler":"LRU"}`},
		{"negative acs", `{"scheduler":"HEF","acs":-1}`},
		{"motion out of range", `{"scheduler":"HEF","motion":1.5}`},
		{"frames over limit", `{"scheduler":"HEF","frames":501}`},
		{"acs over limit", `{"scheduler":"HEF","acs":1000}`},
		{"negative timeout", `{"scheduler":"HEF","timeout_ms":-1}`},
		{"trailing garbage", `{"scheduler":"HEF"} {"again":true}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
		var e apiError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, w.Body.String())
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", w.Code)
	}
}

// TestSimulateDeadline exercises the real deadline path: a 2000-frame run
// takes far longer than 1 ms, so the context expires inside the simulator's
// event loop and surfaces as 504.
func TestSimulateDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/simulate", SimulateRequest{
		Point:     explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 2000, SeedForecasts: true},
		TimeoutMS: 1,
	})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", w.Code, w.Body.String())
	}
}

// blockingRun replaces Server.runPoint with a run that parks until released
// (or the context expires), so saturation and drain become deterministic.
type blockingRun struct {
	started chan struct{} // one tick per run that began
	release chan struct{} // close to let all runs finish
}

func newBlockingRun(s *Server) *blockingRun {
	b := &blockingRun{started: make(chan struct{}, 64), release: make(chan struct{})}
	s.runPoint = func(ctx context.Context, p explore.Point, collect sim.Options, res *sim.Result) error {
		b.started <- struct{}{}
		select {
		case <-b.release:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("sim: canceled: %w", ctx.Err())
		}
	}
	return b
}

func (b *blockingRun) waitStarted(t *testing.T) {
	t.Helper()
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("simulation never started")
	}
}

func TestSimulateSaturation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	b := newBlockingRun(s)
	h := s.Handler()

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postJSON(t, h, "/v1/simulate", SimulateRequest{
			Point: explore.Point{Scheduler: "HEF", Frames: 1},
		})
	}()
	b.waitStarted(t)

	// A different point (same pool) must shed with 429 + Retry-After.
	w := postJSON(t, h, "/v1/simulate", SimulateRequest{
		Point: explore.Point{Scheduler: "ASF", Frames: 1},
	})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(b.release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("first request: status %d after release (body %s)", w.Code, w.Body.String())
	}
}

// TestSimulateCoalesce: concurrent identical requests share one simulation
// instead of each taking a slot (single-flight on the canonical point key).
func TestSimulateCoalesce(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	b := newBlockingRun(s)
	h := s.Handler()

	point := SimulateRequest{Point: explore.Point{Scheduler: "HEF", Frames: 1}}
	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- postJSON(t, h, "/v1/simulate", point) }()
	b.waitStarted(t)
	go func() { results <- postJSON(t, h, "/v1/simulate", point) }()

	// The second identical request must NOT need a second slot (none is
	// free) — it waits on the leader. Give it a moment to either coalesce
	// or (wrongly) shed.
	time.Sleep(50 * time.Millisecond)
	close(b.release)
	sawHit := false
	for i := 0; i < 2; i++ {
		w := <-results
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (body %s)", i, w.Code, w.Body.String())
		}
		if w.Header().Get("X-Cache") == "hit" {
			sawHit = true
		}
	}
	if !sawHit {
		t.Error("no request reported X-Cache: hit; coalescing/caching broken")
	}
	select {
	case <-b.started:
		t.Error("identical concurrent request started a second simulation")
	default:
	}
}

func TestSimulateCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := SimulateRequest{Point: explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}}

	w1 := postJSON(t, h, "/v1/simulate", req)
	w2 := postJSON(t, h, "/v1/simulate", req)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", w1.Code, w2.Code)
	}
	if got := w1.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache %q, want miss", got)
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached body differs from computed body")
	}
	if s.cache.len() != 1 {
		t.Errorf("cache holds %d entries, want 1", s.cache.len())
	}
	if s.Metrics() == "" || !strings.Contains(s.Metrics(), `rispp_simulate_cache_total{outcome="hit"} 1`) {
		t.Errorf("metrics missing cache hit:\n%s", s.Metrics())
	}
}

// TestGracefulDrain: Shutdown lets the in-flight simulation finish while
// new requests shed with 503, then returns.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	b := newBlockingRun(s)
	h := s.Handler()

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		firstDone <- postJSON(t, h, "/v1/simulate", SimulateRequest{
			Point: explore.Point{Scheduler: "HEF", Frames: 1},
		})
	}()
	b.waitStarted(t)

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// Wait for the drain gate to flip, then verify load shedding.
	deadline := time.Now().Add(5 * time.Second)
	for !s.closing.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never set the drain gate")
		}
		time.Sleep(time.Millisecond)
	}
	w := postJSON(t, h, "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "ASF", Frames: 1}})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status %d, want 503", w.Code)
	}
	wh := httptest.NewRecorder()
	h.ServeHTTP(wh, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if wh.Code != http.StatusServiceUnavailable || !strings.Contains(wh.Body.String(), "draining") {
		t.Errorf("healthz during drain: status %d body %s, want 503 draining", wh.Code, wh.Body.String())
	}

	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a request was in flight", err)
	default:
	}

	close(b.release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("draining request: status %d, want 200 (body %s)", w.Code, w.Body.String())
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return after drain")
	}
}

func TestShutdownDeadline(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	b := newBlockingRun(s)
	h := s.Handler()
	go postJSON(t, h, "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "HEF", Frames: 1}})
	b.waitStarted(t)
	defer close(b.release)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{})
	s.runPoint = func(ctx context.Context, p explore.Point, collect sim.Options, res *sim.Result) error {
		panic("boom")
	}
	w := postJSON(t, s.Handler(), "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "HEF", Frames: 1}})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (body %s)", w.Code, w.Body.String())
	}
	if !strings.Contains(s.Metrics(), "rispp_panics_total 1") {
		t.Errorf("metrics missing panic count:\n%s", s.Metrics())
	}
	// The server survives: the next (different) request succeeds.
	s.runPoint = s.runner.RunPoint
	w = postJSON(t, s.Handler(), "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "ASF", Frames: 1}})
	if w.Code != http.StatusOK {
		t.Fatalf("after panic: status %d, want 200", w.Code)
	}
}

// TestConcurrentSimulate fires parallel mixed requests; under -race this is
// the serving layer's data-race gate. Every response must equal the
// deterministic direct run.
func TestConcurrentSimulate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	h := s.Handler()
	points := []explore.Point{
		{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "ASF", NumACs: 8, Frames: 1, SeedForecasts: true},
		{Scheduler: "Molen", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "software", Frames: 1},
	}
	want := make(map[string]int64)
	for _, p := range points {
		res, err := rispp.Run(rispp.Config{Scheduler: p.Scheduler, NumACs: p.NumACs,
			SeedForecasts: p.SeedForecasts, Workload: workloadFrames(1)})
		if err != nil {
			t.Fatal(err)
		}
		want[p.Scheduler] = res.TotalCycles
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 16; i++ {
		p := points[i%len(points)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := postJSON(t, h, "/v1/simulate", SimulateRequest{Point: p})
			if w.Code == http.StatusTooManyRequests {
				return // legitimate shedding under load
			}
			if w.Code != http.StatusOK {
				errs <- fmt.Sprintf("%s: status %d (body %s)", p.Scheduler, w.Code, w.Body.String())
				return
			}
			var resp SimulateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				errs <- fmt.Sprintf("%s: decode: %v", p.Scheduler, err)
				return
			}
			if resp.TotalCycles != want[p.Scheduler] {
				errs <- fmt.Sprintf("%s: cycles %d, want %d", p.Scheduler, resp.TotalCycles, want[p.Scheduler])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestExploreStream: the HTTP stream must be byte-identical to the
// exploration engine's JSONL output for the same spec (which risppexplore
// prints), and arrive as application/x-ndjson.
func TestExploreStream(t *testing.T) {
	spec := explore.Spec{
		Schedulers: []string{"software", "Molen"},
		ACs:        []int{4, 6},
		Frames:     []int{1},
	}

	var direct bytes.Buffer
	if _, err := rispp.Explorer(rispp.Config{}, 2, nil).Execute(context.Background(), spec, &direct); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(ExploreRequest{Spec: spec})
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	if got := resp.Header.Get("X-Points"); got != "4" {
		t.Errorf("X-Points %q, want 4", got)
	}
	streamed, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, direct.Bytes()) {
		t.Errorf("served stream differs from engine output:\nserved: %s\ndirect: %s", streamed, direct.Bytes())
	}
}

func TestExploreValidation(t *testing.T) {
	s := newTestServer(t, Config{MaxPoints: 3})
	h := s.Handler()
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{"spec":`},
		{"empty spec", `{"spec":{}}`},
		{"bad scheduler", `{"spec":{"schedulers":["LRU"],"acs":[4]}}`},
		{"too many points", `{"spec":{"schedulers":["HEF"],"acs":[1,2,3,4],"frames":[1]}}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/explore", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, w.Code, w.Body.String())
		}
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"status":"ok"`) {
		t.Errorf("healthz: status %d body %s", w.Code, w.Body.String())
	}

	postJSON(t, h, "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "software", Frames: 1}})

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	for _, series := range []string{
		`rispp_requests_total{route="/v1/simulate",code="200"} 1`,
		`rispp_requests_total{route="/v1/healthz",code="200"} 1`,
		`rispp_endpoint_latency_seconds_count{route="/v1/simulate"} 1`,
		"rispp_inflight_simulations 0",
		"rispp_panics_total 0",
	} {
		if !strings.Contains(w.Body.String(), series) {
			t.Errorf("metrics missing %q:\n%s", series, w.Body.String())
		}
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/nope", nil))
	if w.Code != http.StatusNotFound {
		t.Errorf("unknown route: status %d, want 404", w.Code)
	}
}

func TestRespCacheLRU(t *testing.T) {
	c := newRespCache(2)
	ctx := context.Background()
	for _, k := range []string{"a", "b", "c"} {
		k := k
		if _, hit, err := c.do(ctx, k, func() ([]byte, error) { return []byte(k), nil }); hit || err != nil {
			t.Fatalf("%s: hit=%v err=%v on first compute", k, hit, err)
		}
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2 after eviction", c.len())
	}
	// "a" was evicted (least recent), "b" and "c" remain.
	calls := 0
	if _, hit, _ := c.do(ctx, "b", func() ([]byte, error) { calls++; return []byte("b"), nil }); !hit {
		t.Error("b evicted too early")
	}
	if _, hit, _ := c.do(ctx, "a", func() ([]byte, error) { calls++; return []byte("a"), nil }); hit {
		t.Error("a survived eviction")
	}
	if calls != 1 {
		t.Errorf("%d recomputes, want 1", calls)
	}
}

func TestRespCacheLeaderFailureNotShared(t *testing.T) {
	c := newRespCache(4)
	ctx := context.Background()
	if _, _, err := c.do(ctx, "k", func() ([]byte, error) { return nil, fmt.Errorf("transient") }); err == nil {
		t.Fatal("leader error lost")
	}
	body, hit, err := c.do(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || string(body) != "ok" {
		t.Fatalf("retry after failure: body=%q hit=%v err=%v", body, hit, err)
	}
}

// workloadFrames builds the n-frame paper workload — the same trace the
// server materializes from explore.Point knobs via rispp.Runner.
func workloadFrames(n int) *workload.Trace {
	return workload.H264(workload.H264Config{Frames: n})
}

func isaSIID(i int) isa.SIID { return isa.SIID(i) }
