// Package tmtc implements the paper's N1 "transfer system": the TC/TM
// space link between the network control center and the satellite
// platform (§3.3). It provides the GEO link model (fixed propagation
// delay, finite rate, injectable bit errors), CCSDS-flavoured transfer
// frames with CRC, virtual channels, segmentation, and the two
// telecommand transfer modes the paper names — the express (BD) mode for
// small question/response tests and the controlled (AD) mode, a go-back-N
// ARQ in the style of COP-1, for reliable configuration transfer.
package tmtc

import (
	"math"
	"math/rand"
	"slices"

	"repro/internal/sim"
)

// Side identifies a link endpoint.
type Side int

// Link endpoints.
const (
	Ground Side = iota
	Space
)

// Link is a full-duplex point-to-point space link on the simulated clock.
type Link struct {
	sim   *sim.Simulator
	delay float64 // one-way propagation, seconds
	ber   float64
	rng   *rand.Rand
	ends  [2]*Endpoint

	// Telemetry counters.
	framesSent    [2]int
	bytesSent     [2]int
	bitsCorrupted int
}

// Endpoint is one side of the link.
type Endpoint struct {
	link     *Link
	side     Side
	rateBps  float64
	nextFree float64 // serialization horizon for outgoing transmissions
	// Receive is invoked (on the simulator) for each arriving packet.
	Receive func(data []byte)
}

// GEOOneWayDelay is the ground-to-GEO propagation time in seconds
// (35786 km at the speed of light, ~119 ms, rounded to the 125 ms the
// link budget uses).
const GEOOneWayDelay = 0.125

// NewGEOLink builds a link with GEO delay, the given uplink (ground to
// space) and downlink (space to ground) rates in bits/second, and a bit
// error rate applied independently per transmitted bit.
func NewGEOLink(s *sim.Simulator, uplinkBps, downlinkBps, ber float64, seed int64) *Link {
	l := &Link{sim: s, delay: GEOOneWayDelay, ber: ber, rng: rand.New(rand.NewSource(seed))}
	l.ends[Ground] = &Endpoint{link: l, side: Ground, rateBps: uplinkBps}
	l.ends[Space] = &Endpoint{link: l, side: Space, rateBps: downlinkBps}
	return l
}

// End returns the endpoint for a side.
func (l *Link) End(s Side) *Endpoint { return l.ends[s] }

// Stats returns frames/bytes sent per side and total corrupted bits.
func (l *Link) Stats() (framesG, framesS, bytesG, bytesS, corrupted int) {
	return l.framesSent[Ground], l.framesSent[Space],
		l.bytesSent[Ground], l.bytesSent[Space], l.bitsCorrupted
}

// Send transmits a packet to the peer endpoint: it serializes behind any
// transmission in progress, adds propagation delay, applies bit errors,
// and schedules the peer's Receive callback.
func (e *Endpoint) Send(data []byte) {
	l := e.link
	now := l.sim.Now()
	start := math.Max(now, e.nextFree)
	txTime := float64(len(data)*8) / e.rateBps
	e.nextFree = start + txTime
	arrival := start + txTime + l.delay

	pkt := slices.Clone(data)
	if l.ber > 0 {
		for i := range pkt {
			for b := 0; b < 8; b++ {
				if l.rng.Float64() < l.ber {
					pkt[i] ^= 1 << b
					l.bitsCorrupted++
				}
			}
		}
	}
	l.framesSent[e.side]++
	l.bytesSent[e.side] += len(data)

	peer := l.ends[1-e.side]
	l.sim.Schedule(arrival-now, func() {
		if peer.Receive != nil {
			peer.Receive(pkt)
		}
	})
}
