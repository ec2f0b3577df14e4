package modem

import "repro/internal/dsp"

// MF-TDMA framing: the uplink of Fig 2 carries several frequency-
// multiplexed carriers, each divided into time slots. A terminal transmits
// one burst per assigned (carrier, slot). SymbolRateTDMA matches the
// paper's improved-link goal: QPSK at 1.024 Msym/s ≈ 2 Mbps, sample-rate
// compatible with the 2.048 Mcps CDMA mode ("working frequencies of both
// modes are then fully compatible", §2.3).
const (
	// SymbolRateTDMA is the TDMA symbol rate (symbols/second).
	SymbolRateTDMA = 1_024_000
	// BitRateTDMA is the corresponding QPSK bit rate (≈ the 2 Mbps goal).
	BitRateTDMA = 2 * SymbolRateTDMA
)

// FrameConfig describes an MF-TDMA frame.
type FrameConfig struct {
	Carriers     int // frequency channels (the paper sizes gate counts at 6)
	Slots        int // time slots per frame
	SlotSymbols  int // symbols per slot including guard
	GuardSymbols int // idle symbols at the end of each slot
}

// DefaultFrameConfig returns the 6-carrier frame used by the experiments.
func DefaultFrameConfig() FrameConfig {
	return FrameConfig{Carriers: 6, Slots: 8, SlotSymbols: 512, GuardSymbols: 16}
}

// SlotAssignment places a terminal's burst in the frame.
type SlotAssignment struct {
	Carrier int
	Slot    int
}

// FrameComposer builds the per-carrier slot waveforms of one MF-TDMA
// frame. Each carrier is a baseband sample stream at sps samples/symbol;
// frequency stacking onto a single wideband signal is done by the payload
// front end.
type FrameComposer struct {
	cfg FrameConfig
	sps int
	// carriers[c] is the baseband waveform of carrier c for the frame.
	carriers []dsp.Vec
	// written[c*Slots+s]: the cell was handed out since the last Reset.
	written []bool
}

// NewFrameComposer creates an empty frame at sps samples/symbol; its
// waveforms come from the dsp block allocator and Release returns them.
func NewFrameComposer(cfg FrameConfig, sps int) *FrameComposer {
	if cfg.Carriers < 1 || cfg.Slots < 1 || cfg.SlotSymbols < 1 {
		panic("modem: invalid frame configuration")
	}
	fc := &FrameComposer{cfg: cfg, sps: sps, carriers: make([]dsp.Vec, cfg.Carriers),
		written: make([]bool, cfg.Carriers*cfg.Slots)}
	n := cfg.Slots * cfg.SlotSymbols * sps
	for i := range fc.carriers {
		fc.carriers[i] = dsp.GetZeroVec(n) // Reset clears only the cells handed out
	}
	return fc
}

// Release returns the waveforms to the dsp block allocator; the composer
// must not be used afterwards.
func (fc *FrameComposer) Release() {
	for _, v := range fc.carriers {
		dsp.PutVec(v)
	}
	fc.carriers = nil
}

// Reset silences every carrier so the composer can build the next frame
// without reallocating its waveform buffers — streaming engines compose
// one frame per iteration and must not churn the heap.
func (fc *FrameComposer) Reset() {
	for i, w := range fc.written {
		if w {
			clear(fc.SlotWaveform(SlotAssignment{Carrier: i / fc.cfg.Slots, Slot: i % fc.cfg.Slots}))
			fc.written[i] = false
		}
	}
}

// PlaceBurst writes a burst waveform into the assigned slot of the
// assigned carrier. The waveform is truncated if it exceeds the slot.
func (fc *FrameComposer) PlaceBurst(a SlotAssignment, wave dsp.Vec) {
	if a.Carrier < 0 || a.Carrier >= fc.cfg.Carriers {
		panic("modem: carrier index out of range")
	}
	if a.Slot < 0 || a.Slot >= fc.cfg.Slots {
		panic("modem: slot index out of range")
	}
	copy(fc.SlotWaveform(a), wave)
}

// SlotWaveform extracts the samples of one (carrier, slot) cell. The
// cell counts as written: the caller may fill it.
func (fc *FrameComposer) SlotWaveform(a SlotAssignment) dsp.Vec {
	fc.written[a.Carrier*fc.cfg.Slots+a.Slot] = true
	start := a.Slot * fc.cfg.SlotSymbols * fc.sps
	end := start + fc.cfg.SlotSymbols*fc.sps
	return fc.carriers[a.Carrier][start:end]
}
