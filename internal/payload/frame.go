package payload

import (
	"slices"

	"repro/internal/modem"
	"repro/internal/pipeline"
	"repro/internal/switchfab"
)

// Frame-level MF-TDMA reception: the return link of Fig 2 is organized
// in frames of (carrier, slot) cells; terminals transmit one burst per
// assigned cell. ReceiveFrameAndRouteQoS demodulates, decodes and
// routes every assigned cell of a composed frame and reports per-burst
// outcomes — the payload-side view of the MF-TDMA time plan.

// BurstReceipt is the outcome of one (carrier, slot) cell.
type BurstReceipt struct {
	Assignment modem.SlotAssignment
	Found      bool
	// Sync carries the burst-synchronization diagnostics (UW metric, CFO
	// estimate, timing offset, carrier phase) of the demodulation stage,
	// populated for found and missed bursts alike so callers can study
	// acquisition behaviour under channel impairments.
	Sync SyncInfo
	// Bits holds the decoded info bits of a routed burst, nil when the
	// cell failed.
	Bits []byte
	Err  error
}

// RouteMeta describes where and how one decoded burst enters the
// switching fabric: the destination beam, the traffic class the
// downlink scheduler keys on, an opaque terminal token for delivery
// attribution, and the ingress frame stamp for latency accounting.
// InfoBits > 0 trims the decoded bits to the codeword's info length
// before routing (the engine's k); 0 routes every decoded bit.
type RouteMeta struct {
	Beam     int
	Class    switchfab.Class
	Term     any
	Ingress  int
	InfoBits int
}

// ReceiveFrameAndRouteQoS runs the full regenerative receive path over
// the assigned cells of an MF-TDMA frame, composed at the payload's 4
// samples/symbol (unassigned cells are not touched). The cells are
// demodulated and decoded concurrently on the pipeline worker pool, each
// writing only its own receipt and decode buffer, then routed after the
// barrier in assignment order, so the call is bit-identical to a
// sequential loop. Each decoded burst enters the fabric, which copies
// it, as a typed packet (class, terminal token, ingress frame) trimmed
// to metas[i].InfoBits info bits. A failed cell (burst not found,
// service down, short codeword, beam outside the fabric) carries its
// error in its receipt and routes nothing; a tail drop by a full class
// queue is counted by the fabric, not in the receipt.
//
// The receipts and their Bits are the payload's own buffers, valid until
// the next call; calls on one payload must not overlap.
func (p *Payload) ReceiveFrameAndRouteQoS(fc *modem.FrameComposer, assignments []modem.SlotAssignment, metas []RouteMeta) []BurstReceipt {
	if len(metas) != len(assignments) {
		panic("payload: one route meta per assignment required")
	}
	n := len(assignments)
	p.receipts = slices.Grow(p.receipts[:0], n)[:n]
	p.decoded = append(p.decoded, make([][]byte, max(n-len(p.decoded), 0))...)
	p.curFC, p.curAsgs = fc, assignments
	pipeline.ForEach(n, p.receive)
	p.curFC, p.curAsgs = nil, nil
	for i := range p.receipts {
		r, m := &p.receipts[i], metas[i]
		if r.Bits == nil {
			continue
		}
		err := p.checkBeam(m.Beam)
		if !p.cs.FunctionHealthy(FuncSwitch) {
			err = ErrServiceDown
		}
		if err != nil {
			r.Bits, r.Err = nil, err
			continue
		}
		bits := r.Bits
		if m.InfoBits > 0 && m.InfoBits < len(bits) {
			bits = bits[:m.InfoBits]
		}
		p.sw.RoutePacket(m.Beam, switchfab.Packet{Bits: bits, Class: m.Class, Term: m.Term, Ingress: m.Ingress})
	}
	return p.receipts
}

// receiveCell demodulates and decodes cell i into receipt and buffer i.
func (p *Payload) receiveCell(i int) {
	a := p.curAsgs[i]
	r := &p.receipts[i]
	*r = BurstReceipt{Assignment: a}
	soft, dem, info, err := p.demodulateCarrier(a.Carrier, p.curFC.SlotWaveform(a))
	r.Sync = info
	if err == nil {
		r.Found = true
		var bits []byte
		if bits, err = p.decode(p.decoded[i][:0], soft); err == nil {
			p.decoded[i], r.Bits = bits, bits
		}
	}
	r.Err = err
	p.release(dem)
}
