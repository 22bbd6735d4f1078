// Race stress of the QoS layer: two tenants with different weights and
// quotas push interactive /v1/simulate traffic and batch /v1/explore
// sweeps through one server (one shared rispp.Runner, one WFQ scheduler)
// concurrently with a hot limits reload. Run under -race (the CI race job
// does). Correctness oracle: every 200 carries the deterministic direct-
// run cycle count, every shed is a well-formed 429, and the scheduler's
// books balance afterwards (no leaked slots, empty queues).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/sim"
)

func TestTwoTenantTrafficRaceFree(t *testing.T) {
	pts := []explore.Point{
		{Scheduler: "HEF", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "SJF", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "Molen", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "software", NumACs: 0, Frames: 1, SeedForecasts: true},
	}
	want := make(map[string]int64, len(pts))
	seq := rispp.NewRunner(rispp.Config{})
	for _, p := range pts {
		res := new(sim.Result)
		if err := seq.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		want[p.Normalized().Key()] = res.TotalCycles
	}

	var logBuf syncBuffer
	s := New(Config{
		Workers:      4,
		CacheEntries: -1, // every request goes through QoS + the runner
		AccessLog:    &logBuf,
		QoS: QoSConfig{
			Tenants: map[string]TenantLimits{
				"gold":   {Weight: 3, MaxQueue: 128},
				"bronze": {Weight: 1, MaxInFlight: 3, MaxQueue: 128},
			},
			InteractiveQueue: 128,
			BatchQueue:       128,
		},
	}, rispp.Config{})
	s.Logf = t.Logf
	h := s.Handler()

	spec := explore.Spec{Points: pts}
	specBody, err := json.Marshal(ExploreRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 5
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		tenant := "gold"
		if g%2 == 1 {
			tenant = "bronze"
		}
		// Interactive stream.
		wg.Add(1)
		go func(g int, tenant string) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for off := range pts {
					p := pts[(g+off)%len(pts)]
					body, err := json.Marshal(SimulateRequest{Point: p})
					if err != nil {
						panic(err)
					}
					req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
					req.Header.Set("X-Tenant", tenant)
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					switch w.Code {
					case http.StatusOK:
						var resp SimulateResponse
						if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
							t.Errorf("%s: decode: %v", tenant, err)
							return
						}
						if resp.TotalCycles != want[resp.Point.Key()] {
							t.Errorf("%s: %s: cycles %d, want %d", tenant, resp.Point.Key(),
								resp.TotalCycles, want[resp.Point.Key()])
							return
						}
					case http.StatusTooManyRequests:
						if w.Header().Get("Retry-After") == "" {
							t.Errorf("%s: 429 without Retry-After", tenant)
							return
						}
					default:
						t.Errorf("%s: status %d (body %s)", tenant, w.Code, w.Body.String())
						return
					}
				}
			}
		}(g, tenant)
		// Batch stream: whole sweeps at batch priority.
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(specBody))
				req.Header.Set("X-Tenant", tenant)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					t.Errorf("%s: sweep status %d (body %s)", tenant, w.Code, w.Body.String())
					return
				}
				for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
					var rec explore.Record
					if err := json.Unmarshal([]byte(line), &rec); err != nil {
						t.Errorf("%s: sweep record: %v", tenant, err)
						return
					}
					if rec.Err != "" {
						t.Errorf("%s: sweep point %s: %s", tenant, rec.Point.Key(), rec.Err)
						return
					}
					if rec.TotalCycles != want[rec.Point.Key()] {
						t.Errorf("%s: sweep %s: cycles %d, want %d", tenant, rec.Point.Key(),
							rec.TotalCycles, want[rec.Point.Key()])
						return
					}
				}
			}
		}(tenant)
	}
	// Concurrent hot reloads must not disturb either traffic stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			s.UpdateQoS(QoSConfig{
				Tenants: map[string]TenantLimits{
					"gold":   {Weight: 3 + i%2, MaxQueue: 128},
					"bronze": {Weight: 1, MaxInFlight: 3 + i%3, MaxQueue: 128},
				},
				InteractiveQueue: 128,
				BatchQueue:       128,
			})
		}
	}()
	wg.Wait()

	// The books must balance: no slot leaked, no waiter stranded.
	s.qos.mu.Lock()
	used, batchUsed := s.qos.used, s.qos.batchUsed
	s.qos.mu.Unlock()
	if used != 0 || batchUsed != 0 {
		t.Errorf("slots leaked after drain: used=%d batchUsed=%d", used, batchUsed)
	}
	if d := s.qos.queueDepths(); d[classInteractive] != 0 || d[classBatch] != 0 {
		t.Errorf("waiters stranded: %v", d)
	}
	// Both tenants were admitted and logged.
	m := s.Metrics()
	for _, series := range []string{
		`rispp_tenant_admitted_total{tenant="gold",class="interactive"}`,
		`rispp_tenant_admitted_total{tenant="bronze",class="batch"}`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q after stress:\n%s", series, m)
		}
	}
	if !strings.Contains(logBuf.String(), `"tenant":"gold"`) || !strings.Contains(logBuf.String(), `"tenant":"bronze"`) {
		t.Error("access log missing tenant lines")
	}
}
