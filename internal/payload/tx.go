package payload

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/pipeline"
)

// Transmit section of Fig 2: packets drained from the baseband switch are
// re-encoded (FuncCoding), burst-modulated, stacked onto downlink
// carriers (DUC bank) and passed through the DAC. Together with the
// receive chain this closes the regenerative loop: demodulate - decode -
// switch - re-encode - remodulate.

// TxTailMargin is the per-carrier tail padding (samples at the carrier
// rate) that absorbs the DUC/DDC filter group delays so the end of a
// burst is never pushed past the receiver's block boundary. Exported so
// external sequential references (benchmarks, tests) size their frames
// identically to the transmitter.
const TxTailMargin = 64

// Transmitter drives the payload downlink.
type Transmitter struct {
	pl   *Payload
	plan frontend.CarrierPlan
	mux  *frontend.Mux
	dac  *frontend.DAC
	sps  int

	// Modulator pool: the burst format and sample rate are fixed at
	// construction, so recycled modulators (which fully reset per burst)
	// stand in for the bank of identical per-carrier MOD chains and let
	// any number of concurrent workers modulate without shared state.
	mods    sync.Pool
	waveLen int // samples Modulate emits per burst

	// encBufs pools *[]byte encode scratch for the grid fast path, so
	// re-encoding a full frame of bursts costs no per-burst allocations.
	encBufs sync.Pool

	// carrierBufs holds the per-carrier downlink waveforms of the frame
	// under construction; each grid worker touches only its own carrier.
	carrierBufs []dsp.Vec
}

// NewTransmitter builds the Tx section for the given downlink carrier
// plan. Burst parameters mirror the uplink format.
func NewTransmitter(pl *Payload, plan frontend.CarrierPlan) *Transmitter {
	t := &Transmitter{
		pl:          pl,
		plan:        plan,
		mux:         frontend.NewMux(plan, 95),
		dac:         frontend.NewDAC(12, 4),
		sps:         plan.Decim,
		carrierBufs: make([]dsp.Vec, plan.Carriers),
	}
	t.mods.New = func() any {
		return modem.NewBurstModulator(pl.BurstFormat(), 0.35, plan.Decim, 10)
	}
	t.encBufs.New = func() any {
		b := make([]byte, 0, pl.BurstFormat().PayloadBits())
		return &b
	}
	m := t.mods.Get().(*modem.BurstModulator)
	t.waveLen = m.WaveformLen()
	t.mods.Put(m)
	return t
}

// Plan returns the downlink carrier plan.
func (t *Transmitter) Plan() frontend.CarrierPlan { return t.plan }

// BurstWaveformLen returns the samples one modulated downlink burst
// occupies (including the shaping-filter flush tail).
func (t *Transmitter) BurstWaveformLen() int { return t.waveLen }

// EncodeBurst encodes info bits with the active codec and pads them into
// one downlink burst payload. It fails when the coding function is down
// or the coded stream does not fit the burst.
func (t *Transmitter) EncodeBurst(info []byte) ([]byte, error) {
	return t.encodeBurstInto(make([]byte, 0, t.pl.BurstFormat().PayloadBits()), info)
}

// encodeBurstInto is the scratch-reusing core of EncodeBurst: it encodes
// into dst[:0] (growing it if needed), zero-pads to the burst payload
// budget and returns the padded slice. Callers that pool their scratch
// re-encode bursts without per-burst allocations.
func (t *Transmitter) encodeBurstInto(dst []byte, info []byte) ([]byte, error) {
	if !t.pl.Chipset().FunctionHealthy(FuncCoding) {
		return nil, ErrServiceDown
	}
	codec, err := t.pl.Codec()
	if err != nil {
		return nil, err
	}
	budget := t.pl.BurstFormat().PayloadBits()
	dst = fec.AppendEncode(codec, dst[:0], info)
	if len(dst) > budget {
		return nil, errors.New("payload: coded burst exceeds the slot payload")
	}
	for len(dst) < budget {
		dst = append(dst, 0)
	}
	return dst, nil
}

// TransmitFrameGrid modulates a full (carrier, slot) downlink frame:
// grid[c][s] holds the info bits of the burst for cell (carrier c, slot
// s), nil meaning an idle cell (an all-idle grid is legal and yields the
// empty-carrier wideband block). Carriers fan out across the pipeline
// worker pool — each worker draws its own modulator from the pool and
// writes only its own carrier buffer — so the frame is modulated
// concurrently yet bit-identical to a sequential carrier-by-carrier
// loop. The stacked wideband block after the DAC is drawn from the dsp
// block pool; callers done with it may dsp.PutVec it.
//
// cfg supplies the slot geometry; cfg.Carriers must match the downlink
// carrier plan and one modulated burst must fit a slot.
func (t *Transmitter) TransmitFrameGrid(cfg modem.FrameConfig, grid [][][]byte) (dsp.Vec, error) {
	if cfg.Carriers != t.plan.Carriers {
		return nil, fmt.Errorf("payload: frame has %d carriers, plan has %d", cfg.Carriers, t.plan.Carriers)
	}
	if len(grid) != t.plan.Carriers {
		return nil, fmt.Errorf("payload: grid has %d carriers, plan has %d", len(grid), t.plan.Carriers)
	}
	slotLen := cfg.SlotSymbols * t.sps
	if t.waveLen > slotLen {
		return nil, fmt.Errorf("payload: %d-sample burst exceeds the %d-sample slot", t.waveLen, slotLen)
	}
	if !t.pl.Chipset().FunctionHealthy(FuncSwitch) {
		return nil, ErrServiceDown
	}
	carrierLen := cfg.Slots*slotLen + TxTailMargin
	for c := range t.carrierBufs {
		if cap(t.carrierBufs[c]) < carrierLen {
			t.carrierBufs[c] = dsp.NewVec(carrierLen)
		}
	}
	errs := make([]error, t.plan.Carriers)
	pipeline.ForEach(t.plan.Carriers, func(c int) {
		buf := t.carrierBufs[c][:carrierLen]
		for i := range buf {
			buf[i] = 0
		}
		t.carrierBufs[c] = buf
		if len(grid[c]) > cfg.Slots {
			errs[c] = fmt.Errorf("carrier %d: %d slots exceed the %d-slot frame", c, len(grid[c]), cfg.Slots)
			return
		}
		mod := t.mods.Get().(*modem.BurstModulator)
		pb := t.encBufs.Get().(*[]byte)
		for s, info := range grid[c] {
			if info == nil {
				continue
			}
			payloadBits, err := t.encodeBurstInto(*pb, info)
			if err != nil {
				errs[c] = fmt.Errorf("carrier %d slot %d: %w", c, s, err)
				break
			}
			*pb = payloadBits
			mod.ModulateInto(buf[s*slotLen:], payloadBits)
		}
		t.encBufs.Put(pb)
		t.mods.Put(mod)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	wide := t.mux.ProcessInto(dsp.GetVec(t.mux.OutLen(carrierLen)), t.carrierBufs)
	return t.dac.ConvertInto(wide, wide), nil
}
