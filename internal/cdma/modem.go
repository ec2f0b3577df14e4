package cdma

import (
	"repro/internal/dsp"
	"repro/internal/modem"
)

// Config describes a CDMA return-link carrier as in the paper's S-UMTS
// scenario: chip rate fixed at 2.048 Mcps, data rate set by the spreading
// factor and modulation.
type Config struct {
	SF         int // spreading factor (power of two)
	CodeIndex  int // OVSF channelization code index
	Scrambling int // Gold scrambling code index
	// SamplesPerChip is the oversampling of the chip waveform; 1 runs at
	// chip rate, >=2 integrates that many samples into each chip.
	SamplesPerChip int
}

// DefaultConfig returns the configuration used by the experiments:
// SF 16, QPSK — 2.048 Mcps / 16 * 2 bits = 256 kbps raw, in the paper's
// "not exceeding 144 or 384 kbps" envelope.
func DefaultConfig() Config {
	return Config{SF: 16, CodeIndex: 5, Scrambling: 7, SamplesPerChip: 1}
}

// BitRate returns the raw QPSK bit rate for the configuration at the
// S-UMTS chip rate.
func (c Config) BitRate() float64 {
	return float64(ChipRateSUMTS) / float64(c.SF) * 2
}

// Modulator spreads QPSK data onto the CDMA waveform.
type Modulator struct {
	cfg Config
	sp  *Spreader
}

// NewModulator builds the transmit side.
func NewModulator(cfg Config) *Modulator {
	validate(cfg)
	return &Modulator{cfg: cfg, sp: NewSpreader(cfg.SF, cfg.CodeIndex, cfg.Scrambling)}
}

func validate(cfg Config) {
	if cfg.SF < 2 || cfg.SF&(cfg.SF-1) != 0 {
		panic("cdma: Config.SF must be a power of two >= 2")
	}
	if cfg.SamplesPerChip < 1 {
		panic("cdma: Config.SamplesPerChip must be >= 1")
	}
}

// Modulate converts data bits into the transmitted chip-rate (or
// oversampled) waveform.
func (m *Modulator) Modulate(bits []byte) dsp.Vec {
	chips := m.sp.Spread(modem.QPSK.Map(bits))
	if m.cfg.SamplesPerChip == 1 {
		return chips
	}
	// Rectangular chip pulse at SamplesPerChip samples.
	out := dsp.NewVec(len(chips) * m.cfg.SamplesPerChip)
	for i, c := range chips {
		for k := 0; k < m.cfg.SamplesPerChip; k++ {
			out[i*m.cfg.SamplesPerChip+k] = c
		}
	}
	return out
}

// Reset rewinds the code epoch.
func (m *Modulator) Reset() { m.sp.Reset() }

// Demodulator recovers data bits: serial-search acquisition aligns the
// code epoch, despreading integrates chips back to symbols.
type Demodulator struct {
	cfg Config
	acq *Acquirer
	dsp *Despreader
}

// NewDemodulator builds the receive side. The acquisition window is
// 4 symbols of chips with threshold 0.5.
func NewDemodulator(cfg Config) *Demodulator {
	validate(cfg)
	return &Demodulator{
		cfg: cfg,
		acq: NewAcquirer(cfg.SF, cfg.CodeIndex, cfg.Scrambling, 4*cfg.SF, 0.5),
		dsp: NewDespreader(cfg.SF, cfg.CodeIndex, cfg.Scrambling),
	}
}

// Demodulate processes a received block (aligned or with an unknown chip
// offset up to maxOffset) and returns soft bit values (positive ⇒ 0).
// It returns nil if acquisition fails.
func (d *Demodulator) Demodulate(rx dsp.Vec, maxOffset int) []float64 {
	chips := rx
	if d.cfg.SamplesPerChip >= 2 {
		chips = d.integrate(rx)
	}
	res := d.acq.Search(chips, maxOffset)
	if !res.Detected {
		return nil
	}
	aligned := chips[res.Offset:]
	usable := len(aligned) / d.cfg.SF * d.cfg.SF
	d.dsp.Reset()
	syms := d.dsp.Despread(aligned[:usable])
	return modem.QPSK.DemapInto(make([]float64, 2*len(syms)), syms, float64(d.cfg.SF))
}

// integrate averages SamplesPerChip samples per chip (integrate-and-dump
// matched filter for the rectangular chip pulse) at a fixed phase: chip
// timing is taken as aligned to the sample grid, and is not tracked.
func (d *Demodulator) integrate(rx dsp.Vec) dsp.Vec {
	spc := d.cfg.SamplesPerChip
	n := len(rx) / spc
	out := dsp.NewVec(n)
	for i := 0; i < n; i++ {
		var acc complex128
		for k := 0; k < spc; k++ {
			acc += rx[i*spc+k]
		}
		out[i] = acc / complex(float64(spc), 0)
	}
	return out
}
