package traffic

import (
	"fmt"
	"math"

	"repro/internal/switchfab"
)

// AggregateModel is the population form of a traffic source: one
// arrival process for a whole population of Count members, indexed
// 0..Count-1. BlockDemand sums a contiguous run of members in one call,
// so a beam's share of a 10^5-member population costs what one
// terminal does; Member(j) is member j's per-terminal Model, the one
// its tracer runs. The two views agree exactly for the analytic shapes
// (CBR, OnOff, Hotspot) and in mean for AggregateBernoulli.
type AggregateModel interface {
	Name() string
	// BlockDemand returns the cells requested at frame f by members
	// [lo, hi) together. Implementations must be deterministic under
	// their configuration (and seed) and O(1)-ish in hi-lo.
	BlockDemand(frame, lo, hi int) int
	// Member returns the per-terminal model of member j, the model a
	// tracer terminal for that member runs.
	Member(j int) Model
}

// MemberBeam maps population member j of count onto one of nb beam
// slots by contiguous blocks (member 0..count/nb-ish on slot 0, and so
// on). The block partition keeps each beam's member-index range
// contiguous, which is what lets BlockDemand stay O(1) per beam. The
// scenario layer and the engine must agree on this mapping, so it lives
// here.
func MemberBeam(member, count, nb int) int {
	if count <= 0 || nb <= 0 {
		return 0
	}
	return member * nb / count
}

// memberBlock returns the member-index range [lo, hi) homed on beam
// slot bi — the inverse of MemberBeam.
func memberBlock(bi, count, nb int) (lo, hi int) {
	lo = (bi*count + nb - 1) / nb
	hi = ((bi+1)*count + nb - 1) / nb
	return lo, hi
}

// AggregateBernoulli is the RNG-driven aggregate: each member
// independently requests Cells cells with probability P each frame.
// Member draws come from a counter-based hash of (Seed, member, frame)
// — one logical RNG for the whole population, deterministic under the
// seed with no per-member generator state. Small blocks sum the member
// draws exactly; large blocks draw the binomial total through its
// normal approximation (mean n·P·Cells, variance n·P(1−P)·Cells²) from
// a hash of (Seed, frame, lo, hi), so per-beam demand stays O(1) in the
// member count. The two regimes agree in mean and variance, which is
// the contract the aggregate-statistics tests pin.
type AggregateBernoulli struct {
	P     float64 // per-member per-frame request probability
	Cells int     // cells per request
	Seed  int64
}

// exactBlockMax bounds the block size summed member by member; beyond
// it the normal approximation takes over (a binomial at n > 64 with the
// P values populations use is comfortably normal).
const exactBlockMax = 64

// Name implements AggregateModel.
func (m AggregateBernoulli) Name() string { return fmt.Sprintf("bern-%.2f-%d", m.P, m.Cells) }

// SplitMix64 is the counter-based hash behind the Bernoulli draws — the
// standard SplitMix64 finalizer, full-period and well distributed.
// Exported because it is also the repo's seed-derivation primitive: the
// campaign runner hashes (campaign seed, run index) through it to give
// every Monte Carlo run an independent deterministic engine seed.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9fe
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashUnit reduces a hash to a uniform float64 in [0, 1).
func hashUnit(x uint64) float64 {
	return float64(SplitMix64(x)>>11) / (1 << 53)
}

// memberDraw is one member's Bernoulli draw at one frame.
func (m AggregateBernoulli) memberDraw(frame, j int) int {
	x := uint64(m.Seed) ^ uint64(j)*0x9e3779b97f4a7c15 ^ uint64(frame)*0xd1b54a32d192ed03
	if hashUnit(x) < m.P {
		return m.Cells
	}
	return 0
}

// BlockDemand implements AggregateModel.
func (m AggregateBernoulli) BlockDemand(frame, lo, hi int) int {
	n := hi - lo
	if n <= 0 || m.P <= 0 || m.Cells <= 0 {
		return 0
	}
	if n <= exactBlockMax {
		d := 0
		for j := lo; j < hi; j++ {
			d += m.memberDraw(frame, j)
		}
		return d
	}
	// Box–Muller from two counter-based uniforms keyed on the block, so
	// the draw is a pure function of (seed, frame, lo, hi).
	base := uint64(m.Seed) ^ uint64(frame)*0xd1b54a32d192ed03 ^ uint64(lo)*0x9e3779b97f4a7c15 ^ uint64(hi)*0xbf58476d1ce4b9fb
	u1, u2 := max(hashUnit(base), 1e-12), hashUnit(base+1)
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	mean := float64(n) * m.P
	sd := math.Sqrt(float64(n) * m.P * (1 - m.P))
	return min(max(int(math.Round(mean+sd*z)), 0), n) * m.Cells
}

// Member implements AggregateModel.
func (m AggregateBernoulli) Member(j int) Model { return bernoulliMember{m: m, j: j} }

// bernoulliMember is the per-terminal (tracer) view of one
// AggregateBernoulli member: the same counter-based draw the aggregate
// uses, bound to member index j.
type bernoulliMember struct {
	m AggregateBernoulli
	j int
}

// Name implements Model.
func (b bernoulliMember) Name() string { return b.m.Name() }

// Demand implements Model.
func (b bernoulliMember) Demand(frame int) int { return b.m.memberDraw(frame, b.j) }

// Population is one aggregate population class: Count members homed on
// Beams by contiguous blocks (MemberBeam), driven by one AggregateModel
// instead of Count individual terminals. A sampled subset of members —
// the tracers — keeps the full per-terminal path; their member indices
// are listed here (sorted ascending) so the engine can subtract their
// individual demand from the aggregate block totals, while the tracer
// Terminals themselves ride the engine's ordinary terminal list (in
// whatever join order the caller admits them).
type Population struct {
	Name  string
	Class switchfab.Class
	Beams []int
	Count int
	Model AggregateModel
	// TracerMembers are the member indices modeled as full terminals,
	// sorted ascending, each in [0, Count). Their Member models must
	// match the admitted tracer terminals' models, or the population
	// total drifts from Count independent sources.
	TracerMembers []int
}
