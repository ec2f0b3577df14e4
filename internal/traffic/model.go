// Package traffic is the deterministic MF-TDMA traffic engine: a
// terminal population driven by pluggable traffic models issues
// DAMA-style capacity requests against the return-link slot scheduler
// each frame, the resulting burst time plan is pushed through the full
// regenerative loop (demodulate - decode - switch - re-encode -
// remodulate), and the payload's sharded switching fabric — bounded
// per-(beam, class) queues with drop/backpressure accounting and a
// pluggable downlink scheduler (FIFO, strict priority, DRR) — couples
// the receive and transmit sections as the single downlink queue.
// The engine is the repo's sustained-load harness: everything is a pure
// function of the configuration and seed, so a run is reproducible
// frame for frame, and a metrics layer reports throughput, latency,
// queue depths and losses per run and per traffic class.
package traffic

import (
	"fmt"

	"repro/internal/switchfab"
)

// Model is a deterministic traffic source: the number of (carrier, slot)
// cells a terminal requests for frame f. Implementations must be pure
// functions of f so runs are reproducible.
type Model interface {
	Name() string
	Demand(frame int) int
}

// CBR, OnOff and Hotspot are the traffic shapes. Each is one type for
// both tiers: a plain terminal runs it as its Model, and a population
// runs it as its AggregateModel, whose Member(0) is the value itself.

// CBR requests a constant number of cells every frame.
type CBR struct{ Cells int }

// Name implements Model.
func (m CBR) Name() string { return fmt.Sprintf("cbr-%d", m.Cells) }

// Demand implements Model.
func (m CBR) Demand(int) int { return m.Cells }

// BlockDemand implements AggregateModel.
func (m CBR) BlockDemand(_, lo, hi int) int { return (hi - lo) * m.Cells }

// Member implements AggregateModel.
func (m CBR) Member(int) Model { return m }

// OnOff is a bursty source: Cells cells per frame during the on-period,
// silence during the off-period, with a phase offset so populations can
// be desynchronized. A population spreads its members uniformly over
// the cycle: member j runs at phase Phase+j.
type OnOff struct {
	On, Off int // period lengths in frames
	Cells   int // demand during the on-period
	Phase   int // initial offset into the cycle (of member 0)
}

// Name implements Model.
func (m OnOff) Name() string { return fmt.Sprintf("onoff-%d/%d-%d", m.On, m.Off, m.Cells) }

// Demand implements Model.
func (m OnOff) Demand(frame int) int {
	period := m.On + m.Off
	if period <= 0 {
		return 0
	}
	if (frame+m.Phase)%period < m.On {
		return m.Cells
	}
	return 0
}

// onCountBelow returns the number of y in [0, x) with y mod period in
// the on-window — the prefix-sum form of the on/off square wave.
func (m OnOff) onCountBelow(x int) int {
	period := m.On + m.Off
	return (x/period)*m.On + min(x%period, m.On)
}

// BlockDemand implements AggregateModel: members [lo, hi) occupy the
// consecutive phase window [frame+Phase+lo, frame+Phase+hi), so the
// on-phase member count is a prefix-sum difference — O(1) whatever the
// block size. Negative absolute positions (a negative phase beyond the
// frame count) replicate Demand's truncated-mod semantics exactly:
// (x % period) < On with Go's %, which for x < 0 yields a residue in
// (-period, 0] — on whenever On > 0.
func (m OnOff) BlockDemand(frame, lo, hi int) int {
	period := m.On + m.Off
	if period <= 0 || hi <= lo {
		return 0
	}
	s, e := frame+m.Phase+lo, frame+m.Phase+hi
	on := 0
	if s < 0 {
		stop := min(e, 0)
		n := stop - s
		if m.On > 0 {
			on += n
		} else {
			// On == 0: a negative position is on only when its truncated
			// residue is strictly negative, i.e. it is not a multiple of
			// the period.
			on += n - (floorDiv(stop-1, period) - floorDiv(s-1, period))
		}
		s = stop
	}
	if e > s {
		on += m.onCountBelow(e) - m.onCountBelow(s)
	}
	return on * m.Cells
}

// floorDiv is floor(a/b) for b > 0, exact for negative a (Go's / is
// truncated).
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Member implements AggregateModel.
func (m OnOff) Member(j int) Model {
	m.Phase += j
	return m
}

// Hotspot is a background rate with periodic surges — the flash-crowd
// shape that stresses a beam's downlink queue. A population's members
// surge together.
type Hotspot struct {
	Base   int // cells per frame outside the surge
	Surge  int // cells per frame during the surge
	Period int // frames between surge starts
	Width  int // surge length in frames
}

// Name implements Model.
func (m Hotspot) Name() string { return fmt.Sprintf("hotspot-%d/%d", m.Base, m.Surge) }

// Demand implements Model.
func (m Hotspot) Demand(frame int) int {
	if m.Period > 0 && frame%m.Period < m.Width {
		return m.Surge
	}
	return m.Base
}

// BlockDemand implements AggregateModel.
func (m Hotspot) BlockDemand(frame, lo, hi int) int { return (hi - lo) * m.Demand(frame) }

// Member implements AggregateModel.
func (m Hotspot) Member(int) Model { return m }

// ChannelProfile is the per-terminal uplink impairment set applied
// during burst synthesis: real terminals hit the payload with a carrier
// frequency/phase offset, timing skew and gain of their own, which is
// exactly why the demodulator bank carries a burst synchronization
// chain. All fields are deterministic per terminal, so runs remain pure
// functions of (config, population, seed); only the AWGN draws on the
// per-(frame, cell) seeded channel RNG.
type ChannelProfile struct {
	// CFO is the carrier frequency offset in cycles/symbol. The burst
	// chain's feedforward estimator is unambiguous within ±1/8
	// cycle/symbol; the engine's documented acquisition range is ±1/10.
	CFO float64 `json:"cfo,omitempty"`
	// Drift is a Doppler ramp in cycles/symbol per frame, added to CFO
	// frame after frame.
	Drift float64 `json:"drift,omitempty"`
	// Phase is the carrier phase offset in radians, anywhere in (−π, π].
	Phase float64 `json:"phase,omitempty"`
	// Timing is the fractional-sample timing offset in [0, 1).
	Timing float64 `json:"timing,omitempty"`
	// Gain scales the burst amplitude; 0 means unity.
	Gain float64 `json:"gain,omitempty"`
	// EsN0dB overrides the engine-wide uplink SNR for this terminal;
	// 0 keeps the engine default (Config.EbN0dB converted per codec).
	EsN0dB float64 `json:"esn0_db,omitempty"`
}

// Impaired reports whether the profile perturbs the signal at all
// (an SNR override alone does not need the sync chain).
func (p *ChannelProfile) Impaired() bool {
	return p != nil && (p.CFO != 0 || p.Drift != 0 || p.Phase != 0 || p.Timing != 0 || (p.Gain != 0 && p.Gain != 1))
}

// Terminal is one user terminal of the population: a traffic model, the
// downlink beam its packets are switched to, the traffic class its
// packets carry through the switching fabric (the zero value is best
// effort, so pre-QoS populations are single-class), and an optional
// uplink channel profile (nil = ideal channel, engine-wide AWGN only).
type Terminal struct {
	ID      string
	Beam    int
	Class   switchfab.Class
	Model   Model
	Channel *ChannelProfile
}
