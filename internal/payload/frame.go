package payload

import (
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
	// cell failed. The slice is shared with the packet queued in the
	// switching fabric — callers may read it but must not mutate it.
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
// the assigned cells of an MF-TDMA frame. The composer must have been
// built at the payload's TDMA oversampling (4 samples/symbol);
// unassigned cells are not touched. Every cell is demodulated and
// decoded concurrently on the pipeline worker pool — several bursts on
// the same carrier are fine, since each worker draws its own
// demodulator instance, and every cell writes only its own receipt.
// Routing happens after the barrier, strictly in assignment order: the
// fabric is safe under concurrent routers, but queue contents must be
// schedule-independent, so the call is bit-identical to a sequential
// loop. Each decoded burst enters the fabric as a typed packet carrying
// its traffic class, terminal token and ingress frame, trimmed to
// metas[i].InfoBits info bits and routed un-packed (the downlink
// scheduler hands the very same bit slice to the transmit grid).
// Failed cells (burst not found, service down mid-reconfiguration,
// short codeword, beam outside the fabric) carry their error in the
// receipt and route nothing; a packet tail-dropped by a full class
// queue is counted by the fabric, not reflected in the receipt (the
// burst itself was received fine).
func (p *Payload) ReceiveFrameAndRouteQoS(fc *modem.FrameComposer, assignments []modem.SlotAssignment, metas []RouteMeta) []BurstReceipt {
	if len(metas) != len(assignments) {
		panic("payload: one route meta per assignment required")
	}
	out := make([]BurstReceipt, len(assignments))
	pipeline.ForEach(len(assignments), func(i int) {
		a := assignments[i]
		r := &out[i]
		r.Assignment = a
		soft, dem, info, err := p.demodulateCarrier(a.Carrier, fc.SlotWaveform(a))
		r.Sync = info
		if err == nil {
			r.Found = true
			r.Bits, err = p.decodeBurst(soft)
		}
		r.Err = err
		p.release(dem)
	})
	for i := range out {
		if out[i].Bits == nil {
			continue
		}
		if !p.cs.FunctionHealthy(FuncSwitch) {
			out[i].Bits = nil
			out[i].Err = ErrServiceDown
			continue
		}
		m := metas[i]
		if err := p.checkBeam(m.Beam); err != nil {
			out[i].Bits = nil
			out[i].Err = err
			continue
		}
		bits := out[i].Bits
		if m.InfoBits > 0 && m.InfoBits < len(bits) {
			bits = bits[:m.InfoBits]
		}
		p.sw.RoutePacket(m.Beam, switchfab.Packet{
			Bits:    bits,
			Class:   m.Class,
			Term:    m.Term,
			Ingress: m.Ingress,
		})
	}
	return out
}
