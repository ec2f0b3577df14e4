package payload

import (
	"errors"
	"fmt"

	"repro/internal/dsp"
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

	// mods[c] and encBufs[c] are carrier c's burst modulator (reset per
	// burst) and encode scratch: the bank of per-carrier MOD chains, each
	// touched only by the worker of its carrier.
	mods    []*modem.BurstModulator
	encBufs [][]byte
	waveLen int // samples a modulated burst spans

	// carrierBufs holds the per-carrier downlink waveforms of the frame
	// under construction, from the dsp block allocator (Release returns
	// them); each grid worker touches only its own carrier.
	// runs[c] are the samples its bursts were written to (zero elsewhere):
	// the plan the MUX and the DAC follow, and all the next frame clears.
	carrierBufs []dsp.Vec
	runs        [][]dsp.Span

	// modulate is the per-busy-carrier worker body, built once so a
	// frame allocates neither a closure nor the error slots; busy, errs
	// and cur* are its per-call arguments.
	modulate   func(int)
	busy       []int
	errs       []error
	curSlotLen int
	curGrid    [][][]byte
}

// NewTransmitter builds the Tx section for the given downlink carrier
// plan. Burst parameters mirror the uplink format.
func NewTransmitter(pl *Payload, plan frontend.CarrierPlan) *Transmitter {
	t := &Transmitter{
		pl:          pl,
		plan:        plan,
		mux:         frontend.NewMux(plan, 95),
		dac:         frontend.NewDAC(12, 4),
		carrierBufs: make([]dsp.Vec, plan.Carriers),
		runs:        make([][]dsp.Span, plan.Carriers),
		busy:        make([]int, 0, plan.Carriers),
		errs:        make([]error, plan.Carriers),
		mods:        make([]*modem.BurstModulator, plan.Carriers),
		encBufs:     make([][]byte, plan.Carriers),
	}
	t.modulate = t.modulateCarrier
	for c := range t.mods {
		t.mods[c] = modem.NewBurstModulator(pl.BurstFormat(), 0.35, plan.Decim, 10)
	}
	t.waveLen = t.mods[0].WaveformLen()
	return t
}

// encodeBurstInto encodes info bits with the active codec into dst[:0]
// (growing it if needed), zero-pads them to the burst payload budget and
// returns the padded slice. It fails when the coding function is down or
// the coded stream does not fit the burst.
func (t *Transmitter) encodeBurstInto(dst []byte, info []byte) ([]byte, error) {
	if !t.pl.Chipset().FunctionHealthy(FuncCoding) {
		return nil, ErrServiceDown
	}
	codec, err := t.pl.Codec()
	if err != nil {
		return nil, err
	}
	budget := t.pl.BurstFormat().PayloadBits()
	dst = codec.AppendEncode(dst[:0], info)
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
// empty-carrier wideband block). Work follows the grid: the busy
// carriers are modulated one per task, then the MUX sums and converts
// the wideband tiles their runs reach, one per task. The block is
// bit-identical to a sequential whole-block loop at any worker count,
// and drawn from the dsp block pool (callers may dsp.PutVec it).
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
	slotLen := cfg.SlotSymbols * t.plan.Decim
	if t.waveLen > slotLen {
		return nil, fmt.Errorf("payload: %d-sample burst exceeds the %d-sample slot", t.waveLen, slotLen)
	}
	if !t.pl.Chipset().FunctionHealthy(FuncSwitch) {
		return nil, ErrServiceDown
	}
	carrierLen := cfg.Slots*slotLen + TxTailMargin
	t.busy = t.busy[:0]
	for c, slots := range grid {
		if len(slots) > cfg.Slots {
			return nil, fmt.Errorf("carrier %d: %d slots exceed the %d-slot frame", c, len(slots), cfg.Slots)
		}
		for _, r := range t.runs[c] {
			clear(t.carrierBufs[c][r.Lo:r.Hi])
		}
		if len(t.carrierBufs[c]) != carrierLen {
			dsp.PutVec(t.carrierBufs[c])
			t.carrierBufs[c] = dsp.GetZeroVec(carrierLen) // the runs are all a frame clears
		}
		t.runs[c] = t.runs[c][:0]
		for s, info := range slots {
			if info != nil {
				t.runs[c] = append(t.runs[c], dsp.Span{Lo: s * slotLen, Hi: s*slotLen + t.waveLen})
			}
		}
		if len(t.runs[c]) > 0 {
			t.busy = append(t.busy, c)
		}
	}
	t.curSlotLen, t.curGrid = slotLen, grid
	pipeline.ForEach(len(t.busy), t.modulate)
	t.curGrid = nil
	err := errors.Join(t.errs[:len(t.busy)]...)
	clear(t.errs)
	if err != nil {
		return nil, err
	}
	return t.mux.ProcessRunsInto(dsp.GetVec(t.mux.OutLen(carrierLen)), t.carrierBufs, t.runs, t.dac), nil
}

// Release returns the carrier buffers to the dsp block allocator; the
// next TransmitFrameGrid takes them anew.
func (t *Transmitter) Release() {
	for c, v := range t.carrierBufs {
		dsp.PutVec(v)
		t.carrierBufs[c], t.runs[c] = nil, t.runs[c][:0]
	}
}

// modulateCarrier encodes and modulates the bursts of the i-th busy
// carrier into its (cleared) buffer.
func (t *Transmitter) modulateCarrier(i int) {
	c := t.busy[i]
	buf := t.carrierBufs[c]
	for s, info := range t.curGrid[c] {
		if info == nil {
			continue
		}
		payloadBits, err := t.encodeBurstInto(t.encBufs[c], info)
		if err != nil {
			t.errs[i] = fmt.Errorf("carrier %d slot %d: %w", c, s, err)
			break
		}
		t.encBufs[c] = payloadBits
		t.mods[c].ModulateInto(buf[s*t.curSlotLen:], payloadBits)
	}
}
