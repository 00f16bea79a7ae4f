package obs

import (
	"runtime"
	"sync/atomic"
)

// Progress is the live-run progress board: one cache-line-padded slot
// per rank, updated in-line by the rank's own goroutine and read by the
// telemetry shipper from its own goroutine. It answers the questions a
// monitoring service needs mid-run — how many marker windows has each
// rank completed, when (in virtual time) did it arrive at its last
// window boundary, how much application compute has it burned, is it
// still issuing MPI operations at all — without any locking: every
// field is an independent atomic. The window fields (count, arrival
// time, last flush) are published together under a per-slot sequence
// counter, so a snapshot never pairs one window's count with another
// window's arrival time; the counters may smear one snapshot interval,
// which the consumer tolerates by construction.
//
// A nil *Progress is the disabled state: every method no-ops, so the
// runtime hooks cost one pointer test when live telemetry is off.
type Progress struct {
	slots []progressSlot
}

// progressSlot is one rank's live counters, padded to its own cache
// line so concurrent rank goroutines never false-share.
type progressSlot struct {
	// seq is odd while the rank is publishing the window fields below
	// (windows, arriveVT, flushWindow); readers retry until they see
	// the same even value before and after their loads.
	seq atomic.Uint64
	// windows is the number of completed marker windows (the marker
	// call count, 1-based after the first marker).
	windows atomic.Uint64
	// arriveVT is the rank's virtual clock when it *entered* the last
	// marker barrier — before synchronization stretched it to the
	// collective exit time — so cross-rank skew survives the barrier.
	arriveVT atomic.Int64
	// flushWindow is the last marker window whose processing flushed
	// the trace. The flush is collective, so every rank records the
	// same windows, and its virtual-time cost lands on the arrivals of
	// window flushWindow+1.
	flushWindow atomic.Uint64
	// computeVT accumulates application compute virtual time, including
	// fault-injected stretch: a 4x-slow rank shows ~4x the median here.
	computeVT atomic.Int64
	// ops counts completed MPI operations; the shipper and the server
	// treat a frozen ops count as a missed heartbeat.
	ops atomic.Uint64
	// departed is set when the rank crash-stops.
	departed atomic.Bool

	_ [8]byte // pad the slot past a 64-byte line
}

// RankProgress is the exported snapshot of one rank's slot — the
// per-rank payload of every live telemetry delta.
type RankProgress struct {
	Rank      int    `json:"rank"`
	Windows   uint64 `json:"windows"`
	ArriveVT  int64  `json:"arrive_vt_ns"`
	ComputeVT int64  `json:"compute_vt_ns"`
	Ops       uint64 `json:"ops"`
	Departed  bool   `json:"departed,omitempty"`
	// FlushWindow is the last window after which the tracer flushed;
	// a window equal to FlushWindow+1 carries the flush's stall.
	FlushWindow uint64 `json:"flush_window,omitempty"`
}

// NewProgress sizes a progress board for p ranks.
func NewProgress(p int) *Progress {
	if p <= 0 {
		return nil
	}
	return &Progress{slots: make([]progressSlot, p)}
}

// Window records that rank completed marker window (1-based), having
// arrived at the barrier at virtual time arriveVT.
func (p *Progress) Window(rank int, window uint64, arriveVT int64) {
	if p == nil || rank < 0 || rank >= len(p.slots) {
		return
	}
	s := &p.slots[rank]
	s.seq.Add(1)
	s.windows.Store(window)
	s.arriveVT.Store(arriveVT)
	s.seq.Add(1)
}

// Flushed records that rank's tracer flushed the trace while
// processing marker window (1-based).
func (p *Progress) Flushed(rank int, window uint64) {
	if p == nil || rank < 0 || rank >= len(p.slots) {
		return
	}
	s := &p.slots[rank]
	s.seq.Add(1)
	s.flushWindow.Store(window)
	s.seq.Add(1)
}

// AddCompute accumulates d virtual nanoseconds of application compute
// (post-perturbation, so fault-injected slowdowns are visible).
func (p *Progress) AddCompute(rank int, d int64) {
	if p == nil || rank < 0 || rank >= len(p.slots) {
		return
	}
	p.slots[rank].computeVT.Add(d)
}

// Op counts one completed MPI operation — the rank's heartbeat.
func (p *Progress) Op(rank int) {
	if p == nil || rank < 0 || rank >= len(p.slots) {
		return
	}
	p.slots[rank].ops.Add(1)
}

// Depart marks the rank crash-stopped.
func (p *Progress) Depart(rank int) {
	if p == nil || rank < 0 || rank >= len(p.slots) {
		return
	}
	p.slots[rank].departed.Store(true)
}

// Ranks returns the board's rank count (0 when disabled).
func (p *Progress) Ranks() int {
	if p == nil {
		return 0
	}
	return len(p.slots)
}

// Snapshot copies every slot. Safe to call concurrently with updates:
// each rank's window fields are read as one consistent set, the
// counters independently.
func (p *Progress) Snapshot() []RankProgress {
	if p == nil {
		return nil
	}
	out := make([]RankProgress, len(p.slots))
	for r := range p.slots {
		s := &p.slots[r]
		rp := RankProgress{Rank: r}
		for {
			seq := s.seq.Load()
			if seq&1 == 0 {
				rp.Windows = s.windows.Load()
				rp.ArriveVT = s.arriveVT.Load()
				rp.FlushWindow = s.flushWindow.Load()
				if s.seq.Load() == seq {
					break
				}
			}
			runtime.Gosched()
		}
		rp.ComputeVT = s.computeVT.Load()
		rp.Ops = s.ops.Load()
		rp.Departed = s.departed.Load()
		out[r] = rp
	}
	return out
}
