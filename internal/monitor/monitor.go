// Package monitor implements the online monitoring of SI execution
// frequencies that feeds the RISPP run-time system (paper Section 3.1,
// task II of the Run-Time Manager; the lightweight implementation follows
// the self-adaptive scheme of reference [24]).
//
// During each execution of a hot spot the monitor counts how often every SI
// executes. When the hot spot is left, the measured value is compared with
// the previous expectation and the expectation for the next execution
// iteration of this hot spot is updated. To stay implementable as a small
// hardware block, the update uses a binary-shift exponential smoothing
//
//	expected += (measured - expected) >> Shift
//
// i.e. a smoothing factor α = 2^-Shift, avoiding multipliers and dividers.
package monitor

import (
	"fmt"

	"rispp/internal/isa"
)

// DefaultShift gives α = 0.5: fast adaptation to scene changes while still
// damping single-frame outliers.
const DefaultShift = 1

// Monitor tracks per-hot-spot SI execution counts and maintains the
// expected executions used by Molecule selection and the SI Scheduler.
type Monitor struct {
	is    *isa.ISA
	shift uint

	expected   map[isa.HotSpotID][]int64 // per hot spot: expectation per SI
	counts     []int64                   // live counters of the current hot spot
	current    isa.HotSpotID
	inSpot     bool
	successors map[isa.HotSpotID]map[isa.HotSpotID]int // hot-spot rotation

	// Incremental-update bookkeeping: LeaveHotSpot must visit exactly the
	// SIs with counts[si] != 0 or expected[si] != 0. touched lists the
	// former (appended on a counter's 0→nonzero transition), nz[h] is a
	// superset of the latter (rebuilt exactly on every LeaveHotSpot), and
	// mark/epoch dedupe the union of the two lists without a clearing pass.
	touched []isa.SIID
	nz      map[isa.HotSpotID][]isa.SIID
	mark    []uint32
	epoch   uint32
	nzSwap  []isa.SIID

	// ObservedSpots counts completed hot-spot executions per hot spot.
	ObservedSpots map[isa.HotSpotID]int
	// AbsError accumulates |measured − previous expectation| per SI across
	// all hot-spot executions; used to evaluate forecast quality.
	AbsError int64
	// Samples counts the (hot spot, SI) forecast comparisons behind AbsError.
	Samples int
}

// New creates a monitor for the given ISA with smoothing α = 2^-shift.
func New(is *isa.ISA, shift uint) *Monitor {
	return &Monitor{
		is:            is,
		shift:         shift,
		expected:      make(map[isa.HotSpotID][]int64),
		counts:        make([]int64, len(is.SIs)),
		nz:            make(map[isa.HotSpotID][]isa.SIID),
		mark:          make([]uint32, len(is.SIs)),
		ObservedSpots: make(map[isa.HotSpotID]int),
	}
}

// Reset returns the monitor to its power-on state — no expectations, no
// observed hot spots, no learned rotation — without freeing any backing
// storage: expectation vectors are zeroed in place and maps are cleared, so
// a steady-state Reset+relearn cycle over the same hot spots allocates
// nothing. Behaviorally identical to a freshly constructed Monitor.
func (m *Monitor) Reset() {
	for _, e := range m.expected {
		for i := range e {
			e[i] = 0
		}
	}
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.touched = m.touched[:0]
	for h := range m.nz {
		m.nz[h] = m.nz[h][:0]
	}
	m.current = 0
	m.inSpot = false
	for _, row := range m.successors {
		clear(row)
	}
	clear(m.ObservedSpots)
	m.AbsError = 0
	m.Samples = 0
}

// Seed initializes the expectation of an SI before its hot spot was ever
// observed, e.g. from an offline profiling run. Without seeding, the first
// execution of a hot spot runs with zero expectations (every SI equally
// unimportant) and the monitor learns from there.
func (m *Monitor) Seed(si isa.SIID, expected int64) {
	h := m.is.SI(si).HotSpot
	m.expected[h] = m.ensure(h)
	m.expected[h][si] = expected
	if expected != 0 {
		m.noteNonzero(h, si)
	}
}

// noteNonzero registers si in the nonzero-expectation list of hot spot h,
// preserving the nz ⊇ {si : expected[si] ≠ 0} invariant. Linear dedupe —
// only called from the cold Seed path.
func (m *Monitor) noteNonzero(h isa.HotSpotID, si isa.SIID) {
	for _, x := range m.nz[h] {
		if x == si {
			return
		}
	}
	m.nz[h] = append(m.nz[h], si)
}

func (m *Monitor) ensure(h isa.HotSpotID) []int64 {
	if e, ok := m.expected[h]; ok {
		return e
	}
	e := make([]int64, len(m.is.SIs))
	m.expected[h] = e
	return e
}

// EnterHotSpot starts counting SI executions for hot spot h. Entering a new
// hot spot while another is active finalizes the previous one first.
// O(1): counters were zeroed lazily when the previous hot spot was left.
func (m *Monitor) EnterHotSpot(h isa.HotSpotID) {
	if m.inSpot {
		m.LeaveHotSpot()
	}
	m.current = h
	m.inSpot = true
}

// Record counts n executions of SI si within the current hot spot.
func (m *Monitor) Record(si isa.SIID, n int64) {
	if !m.inSpot {
		panic("monitor: Record outside a hot spot")
	}
	if n == 0 {
		return
	}
	if m.counts[si] == 0 {
		m.touched = append(m.touched, si)
	}
	m.counts[si] += n
}

// LeaveHotSpot finalizes the current hot spot execution: expectations are
// updated from the measured counts. Cost is O(changed) — proportional to
// the SIs that executed this round plus the SIs with a nonzero expectation
// for this hot spot — not O(SIs): the update below visits exactly the SIs
// the old full scan would not have skipped (counts ≠ 0 or expected ≠ 0),
// so AbsError/Samples and every expectation update are order-independent
// sums over the identical set.
func (m *Monitor) LeaveHotSpot() {
	if !m.inSpot {
		return
	}
	e := m.ensure(m.current)
	first := m.ObservedSpots[m.current] == 0
	m.epoch++
	keep := m.nzSwap[:0]
	for _, si := range m.touched {
		m.mark[si] = m.epoch
		m.settle(e, si, first)
		if e[si] != 0 {
			keep = append(keep, si)
		}
		m.counts[si] = 0
	}
	for _, si := range m.nz[m.current] {
		if m.mark[si] == m.epoch || e[si] == 0 {
			continue
		}
		m.mark[si] = m.epoch
		m.settle(e, si, first)
		if e[si] != 0 {
			keep = append(keep, si)
		}
	}
	m.nzSwap = m.nz[m.current][:0]
	m.nz[m.current] = keep
	m.touched = m.touched[:0]
	m.ObservedSpots[m.current]++
	m.inSpot = false
}

// settle applies the smoothing update for one SI of the current hot spot.
func (m *Monitor) settle(e []int64, si isa.SIID, first bool) {
	diff := m.counts[si] - e[si]
	if diff < 0 {
		m.AbsError += -diff
	} else {
		m.AbsError += diff
	}
	m.Samples++
	if first && e[si] == 0 {
		// Cold start: adopt the first measurement outright instead of
		// halving toward it.
		e[si] = m.counts[si]
	} else {
		// Arithmetic shift: negative diffs round toward −∞, so the
		// expectation can always decay back to zero.
		e[si] += diff >> m.shift
	}
}

// Expected returns the expected number of executions of SI si the next time
// hot spot h runs. Unobserved, unseeded SIs forecast zero.
func (m *Monitor) Expected(h isa.HotSpotID, si isa.SIID) int64 {
	if e, ok := m.expected[h]; ok {
		return e[si]
	}
	return 0
}

// Forecast returns the expectation vector for all SIs of hot spot h.
func (m *Monitor) Forecast(h isa.HotSpotID) map[isa.SIID]int64 {
	out := make(map[isa.SIID]int64)
	for _, si := range m.is.HotSpotSIs(h) {
		if v := m.Expected(h, si.ID); v > 0 {
			out[si.ID] = v
		}
	}
	return out
}

// MeanAbsError reports the average absolute forecast error per sample.
func (m *Monitor) MeanAbsError() float64 {
	if m.Samples == 0 {
		return 0
	}
	return float64(m.AbsError) / float64(m.Samples)
}

func (m *Monitor) String() string {
	return fmt.Sprintf("monitor(α=2^-%d, spots=%v)", m.shift, m.ObservedSpots)
}

// Successor prediction: the monitor also learns the hot-spot rotation
// (ME → EE → LF → ME … in the H.264 encoder) so the Run-Time Manager can
// prefetch Atoms for the upcoming hot spot while the reconfiguration port
// would otherwise idle.

// RecordTransition counts an observed hot-spot transition from → to. The
// Manager calls it on every hot-spot switch.
func (m *Monitor) RecordTransition(from, to isa.HotSpotID) {
	if m.successors == nil {
		m.successors = make(map[isa.HotSpotID]map[isa.HotSpotID]int)
	}
	row := m.successors[from]
	if row == nil {
		row = make(map[isa.HotSpotID]int)
		m.successors[from] = row
	}
	row[to]++
}

// PredictNext returns the most frequently observed successor of hot spot h.
// ok is false when h has no recorded successor yet.
func (m *Monitor) PredictNext(h isa.HotSpotID) (next isa.HotSpotID, ok bool) {
	row := m.successors[h]
	best := -1
	for to, n := range row {
		if n > best || (n == best && to < next) {
			best, next, ok = n, to, true
		}
	}
	return next, ok
}
