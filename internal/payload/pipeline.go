package payload

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/pipeline"
)

// ProcessFrame demodulates, decodes and routes every carrier of one
// MF-TDMA frame, modelling the payload's bank of identical per-carrier
// chains running in parallel. rx[c] is carrier c's baseband block (at most
// Config.Carriers blocks); successfully decoded packets are routed to
// beam strictly in carrier order, so switch contents are deterministic
// and the whole call is bit-identical to a sequential per-carrier loop.
//
// The returned slice has one entry per input block; carriers that
// failed (burst not found, acquisition miss, service down) leave a nil
// entry and contribute a wrapped error to the joined err, mirroring the
// per-carrier errors of the sequential path. Partial frames are normal
// under SEUs or mid-reconfiguration, so callers should inspect both
// return values.
func (p *Payload) ProcessFrame(beam int, rx []dsp.Vec) ([][]byte, error) {
	if err := p.checkBeam(beam); err != nil {
		return nil, err
	}
	if len(rx) == 0 {
		return nil, errors.New("payload: empty frame")
	}
	if len(rx) > p.cfg.Carriers {
		return nil, fmt.Errorf("payload: %d blocks exceed the %d-carrier plan", len(rx), p.cfg.Carriers)
	}
	bits := make([][]byte, len(rx))
	errs := make([]error, len(rx))
	pipeline.ForEach(len(rx), func(c int) {
		soft, _, err := p.demodulate(rx[c])
		if err != nil {
			errs[c] = fmt.Errorf("carrier %d: %w", c, err)
			return
		}
		b, err := p.decodeBurst(soft)
		if err != nil {
			errs[c] = fmt.Errorf("carrier %d: %w", c, err)
			return
		}
		bits[c] = b
	})
	// Route after the barrier, in carrier order: the switch is shared
	// state, so routing must not race the workers or follow completion
	// order.
	for c, b := range bits {
		if b == nil {
			continue
		}
		if !p.cs.FunctionHealthy(FuncSwitch) {
			bits[c] = nil
			errs[c] = fmt.Errorf("carrier %d: %w", c, ErrServiceDown)
			continue
		}
		p.sw.Route(beam, fec.PackBits(b))
	}
	return bits, errors.Join(errs...)
}
