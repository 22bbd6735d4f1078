package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the per-route latency
// histograms. One-frame simulations land in the sub-millisecond buckets,
// full 140-frame paper runs in the tens-of-milliseconds range, and large
// exploration sweeps at the top.
var latencyBuckets = [numLatencyBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

const numLatencyBuckets = 8

// metricRoutes are the routes that get their own latency histogram
// (rispp_endpoint_latency_seconds); anything else folds into "other".
// Fixed-index lookup keeps the hot path allocation-free.
var metricRoutes = [...]string{"/v1/simulate", "/v1/explore", "/v1/suggest", "/v1/healthz", "other"}

const numMetricRoutes = len(metricRoutes)

func routeIndex(route string) int {
	for i, r := range metricRoutes {
		if r == route {
			return i
		}
	}
	return numMetricRoutes - 1
}

// routeHist is one endpoint's latency histogram plus count/sum.
type routeHist struct {
	count  atomic.Int64
	sumNS  atomic.Int64
	bucket [numLatencyBuckets]atomic.Int64
}

func (h *routeHist) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.bucket[i].Add(1)
			break
		}
	}
}

// metrics is the server's instrumentation: a handful of counters, per-route
// latency histograms and an in-flight gauge, exposed in Prometheus text
// exposition format with nothing but the standard library. All methods are
// safe for concurrent use.
type metrics struct {
	mu       sync.Mutex
	requests map[string]int64 // "route\x00code" → count

	inflight   atomic.Int64 // simulations currently holding a limiter slot
	cacheHits  atomic.Int64 // /v1/simulate response-cache hits
	cacheMiss  atomic.Int64 // /v1/simulate response-cache misses
	engineHits atomic.Int64 // /v1/explore records answered by the result cache
	engineSim  atomic.Int64 // /v1/explore records actually simulated here
	panics     atomic.Int64 // recovered handler panics

	// Per-endpoint latency histograms (SLO series: p50/p99 per route are
	// derived from the buckets by the scraper/risppload).
	routeLat [numMetricRoutes]routeHist

	// Multi-tenant QoS series (under mu): shed counts by tenant and
	// reason, dispatched work by tenant and class.
	sheds  map[string]int64 // "tenant\x00reason" → count
	admits map[string]int64 // "tenant\x00class" → count

	// queueDepths, when non-nil, reads the scheduler's waiting counts at
	// scrape time; costClasses reads the learned cost model.
	queueDepths func() [numClasses]int
	costClasses func() map[string]float64

	// Adaptive-search instrumentation (/v1/suggest). suggests counts
	// requests per strategy (under mu); the atomics track the points
	// proposed in total and the front size of the most recent reply.
	suggests      map[string]int64
	suggestPoints atomic.Int64
	frontSize     atomic.Int64

	// poolStats, when non-nil, reads the runner's runtime-pool hit/miss
	// counters at scrape time (the pool lives in rispp.Runner, not here).
	poolStats func() (hits, misses int64)

	// fabricStats, when non-nil (coordinator nodes), reads the sweep
	// fabric's counters at scrape time; jobStats reads the async job store.
	fabricStats func() (shardRetries, workerFailures int64, live, total int)
	jobStats    func() (running, retained int)
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]int64),
		suggests: make(map[string]int64),
		sheds:    make(map[string]int64),
		admits:   make(map[string]int64),
	}
}

// tenantShed records one rejected request (429) by tenant and reason.
func (m *metrics) tenantShed(tenant, reason string) {
	m.mu.Lock()
	m.sheds[tenant+"\x00"+reason]++
	m.mu.Unlock()
}

// tenantAdmit records one dispatched slot acquisition by tenant and class.
func (m *metrics) tenantAdmit(tenant string, class int) {
	m.mu.Lock()
	m.admits[tenant+"\x00"+className(class)]++
	m.mu.Unlock()
}

// suggest records one answered /v1/suggest request.
func (m *metrics) suggest(strategy string, points, front int) {
	m.mu.Lock()
	m.suggests[strategy]++
	m.mu.Unlock()
	m.suggestPoints.Add(int64(points))
	m.frontSize.Store(int64(front))
}

// request records one completed request: its route, status code and wall
// time (per-route histogram, the SLO series).
func (m *metrics) request(route string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[route+"\x00"+strconv.Itoa(code)]++
	m.mu.Unlock()
	m.routeLat[routeIndex(route)].observe(d)
}

// write renders the Prometheus text exposition. Series are emitted in a
// deterministic order so scrapes (and tests) are stable.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := make([]int64, len(keys))
	for i, k := range keys {
		counts[i] = m.requests[k]
	}
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP rispp_requests_total Completed HTTP requests by route and status code.\n")
	fmt.Fprintf(w, "# TYPE rispp_requests_total counter\n")
	for i, k := range keys {
		route, code, _ := cutByte(k)
		fmt.Fprintf(w, "rispp_requests_total{route=%q,code=%q} %d\n", route, code, counts[i])
	}

	fmt.Fprintf(w, "# HELP rispp_endpoint_latency_seconds Request wall time by route (SLO series).\n")
	fmt.Fprintf(w, "# TYPE rispp_endpoint_latency_seconds histogram\n")
	for ri, route := range metricRoutes {
		h := &m.routeLat[ri]
		n := h.count.Load()
		if n == 0 {
			continue
		}
		var c int64
		for i, ub := range latencyBuckets {
			c += h.bucket[i].Load()
			fmt.Fprintf(w, "rispp_endpoint_latency_seconds_bucket{route=%q,le=%q} %d\n", route, formatBound(ub), c)
		}
		fmt.Fprintf(w, "rispp_endpoint_latency_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", route, n)
		fmt.Fprintf(w, "rispp_endpoint_latency_seconds_sum{route=%q} %g\n", route, float64(h.sumNS.Load())/1e9)
		fmt.Fprintf(w, "rispp_endpoint_latency_seconds_count{route=%q} %d\n", route, n)
	}

	m.mu.Lock()
	shedKeys := sortedKeys(m.sheds)
	shedCounts := make([]int64, len(shedKeys))
	for i, k := range shedKeys {
		shedCounts[i] = m.sheds[k]
	}
	admitKeys := sortedKeys(m.admits)
	admitCounts := make([]int64, len(admitKeys))
	for i, k := range admitKeys {
		admitCounts[i] = m.admits[k]
	}
	m.mu.Unlock()
	fmt.Fprintf(w, "# HELP rispp_tenant_shed_total Requests rejected (429) by tenant and reason.\n")
	fmt.Fprintf(w, "# TYPE rispp_tenant_shed_total counter\n")
	for i, k := range shedKeys {
		tenant, reason, _ := cutByte(k)
		fmt.Fprintf(w, "rispp_tenant_shed_total{tenant=%q,reason=%q} %d\n", tenant, reason, shedCounts[i])
	}
	fmt.Fprintf(w, "# HELP rispp_tenant_admitted_total Slot acquisitions dispatched by tenant and priority class.\n")
	fmt.Fprintf(w, "# TYPE rispp_tenant_admitted_total counter\n")
	for i, k := range admitKeys {
		tenant, class, _ := cutByte(k)
		fmt.Fprintf(w, "rispp_tenant_admitted_total{tenant=%q,class=%q} %d\n", tenant, class, admitCounts[i])
	}

	if m.queueDepths != nil {
		d := m.queueDepths()
		fmt.Fprintf(w, "# HELP rispp_qos_queue_depth Requests waiting for a simulation slot by priority class.\n")
		fmt.Fprintf(w, "# TYPE rispp_qos_queue_depth gauge\n")
		for class := 0; class < numClasses; class++ {
			fmt.Fprintf(w, "rispp_qos_queue_depth{class=%q} %d\n", className(class), d[class])
		}
	}
	if m.costClasses != nil {
		classes := m.costClasses()
		names := make([]string, 0, len(classes))
		for k := range classes {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "# HELP rispp_cost_class_us Learned per-class simulation cost (EWMA, microseconds).\n")
		fmt.Fprintf(w, "# TYPE rispp_cost_class_us gauge\n")
		for _, k := range names {
			fmt.Fprintf(w, "rispp_cost_class_us{class=%q} %g\n", k, classes[k])
		}
	}

	fmt.Fprintf(w, "# HELP rispp_inflight_simulations Simulations currently holding a limiter slot.\n")
	fmt.Fprintf(w, "# TYPE rispp_inflight_simulations gauge\n")
	fmt.Fprintf(w, "rispp_inflight_simulations %d\n", m.inflight.Load())

	fmt.Fprintf(w, "# HELP rispp_simulate_cache_total /v1/simulate response-cache lookups by outcome.\n")
	fmt.Fprintf(w, "# TYPE rispp_simulate_cache_total counter\n")
	fmt.Fprintf(w, "rispp_simulate_cache_total{outcome=\"hit\"} %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "rispp_simulate_cache_total{outcome=\"miss\"} %d\n", m.cacheMiss.Load())

	fmt.Fprintf(w, "# HELP rispp_explore_cache_hits_total /v1/explore records answered from the result cache.\n")
	fmt.Fprintf(w, "# TYPE rispp_explore_cache_hits_total counter\n")
	fmt.Fprintf(w, "rispp_explore_cache_hits_total %d\n", m.engineHits.Load())

	fmt.Fprintf(w, "# HELP rispp_explore_simulated_total /v1/explore records simulated on this node (cache misses that ran).\n")
	fmt.Fprintf(w, "# TYPE rispp_explore_simulated_total counter\n")
	fmt.Fprintf(w, "rispp_explore_simulated_total %d\n", m.engineSim.Load())

	if m.fabricStats != nil {
		retries, failures, live, total := m.fabricStats()
		fmt.Fprintf(w, "# HELP rispp_fabric_shard_retries_total Sweep points re-dispatched after a worker shard failed.\n")
		fmt.Fprintf(w, "# TYPE rispp_fabric_shard_retries_total counter\n")
		fmt.Fprintf(w, "rispp_fabric_shard_retries_total %d\n", retries)
		fmt.Fprintf(w, "# HELP rispp_fabric_worker_failures_total Workers declared dead by the coordinator.\n")
		fmt.Fprintf(w, "# TYPE rispp_fabric_worker_failures_total counter\n")
		fmt.Fprintf(w, "rispp_fabric_worker_failures_total %d\n", failures)
		fmt.Fprintf(w, "# HELP rispp_fabric_workers Registered fleet workers by liveness.\n")
		fmt.Fprintf(w, "# TYPE rispp_fabric_workers gauge\n")
		fmt.Fprintf(w, "rispp_fabric_workers{state=\"live\"} %d\n", live)
		fmt.Fprintf(w, "rispp_fabric_workers{state=\"dead\"} %d\n", total-live)
	}
	if m.jobStats != nil {
		running, retained := m.jobStats()
		fmt.Fprintf(w, "# HELP rispp_jobs Async sweep jobs in the store by state.\n")
		fmt.Fprintf(w, "# TYPE rispp_jobs gauge\n")
		fmt.Fprintf(w, "rispp_jobs{state=\"running\"} %d\n", running)
		fmt.Fprintf(w, "rispp_jobs{state=\"terminal\"} %d\n", retained-running)
	}

	m.mu.Lock()
	strats := make([]string, 0, len(m.suggests))
	for k := range m.suggests {
		strats = append(strats, k)
	}
	sort.Strings(strats)
	suggestCounts := make([]int64, len(strats))
	for i, k := range strats {
		suggestCounts[i] = m.suggests[k]
	}
	m.mu.Unlock()
	fmt.Fprintf(w, "# HELP rispp_search_suggest_total Answered /v1/suggest requests by strategy.\n")
	fmt.Fprintf(w, "# TYPE rispp_search_suggest_total counter\n")
	for i, k := range strats {
		fmt.Fprintf(w, "rispp_search_suggest_total{strategy=%q} %d\n", k, suggestCounts[i])
	}
	fmt.Fprintf(w, "# HELP rispp_search_suggested_points_total Design points proposed by /v1/suggest.\n")
	fmt.Fprintf(w, "# TYPE rispp_search_suggested_points_total counter\n")
	fmt.Fprintf(w, "rispp_search_suggested_points_total %d\n", m.suggestPoints.Load())
	fmt.Fprintf(w, "# HELP rispp_search_front_size Pareto-front size of the most recent /v1/suggest reply.\n")
	fmt.Fprintf(w, "# TYPE rispp_search_front_size gauge\n")
	fmt.Fprintf(w, "rispp_search_front_size %d\n", m.frontSize.Load())

	if m.poolStats != nil {
		hits, misses := m.poolStats()
		fmt.Fprintf(w, "# HELP rispp_runtime_pool_total Runtime-pool requests by outcome (hit = reused arena, miss = fresh build).\n")
		fmt.Fprintf(w, "# TYPE rispp_runtime_pool_total counter\n")
		fmt.Fprintf(w, "rispp_runtime_pool_total{outcome=\"hit\"} %d\n", hits)
		fmt.Fprintf(w, "rispp_runtime_pool_total{outcome=\"miss\"} %d\n", misses)
	}

	fmt.Fprintf(w, "# HELP rispp_panics_total Recovered handler panics.\n")
	fmt.Fprintf(w, "# TYPE rispp_panics_total counter\n")
	fmt.Fprintf(w, "rispp_panics_total %d\n", m.panics.Load())
}

func (m *metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.write(w)
}

// sortedKeys snapshots a counter map's keys in stable order (callers hold
// mu).
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cutByte(k string) (route, code string, ok bool) {
	for i := 0; i < len(k); i++ {
		if k[i] == 0 {
			return k[:i], k[i+1:], true
		}
	}
	return k, "", false
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form, no exponent for these magnitudes.
func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
