// Package frontend models the wideband digital front end of Fig 2 of the
// paper as far as the reproduction runs it: the multiplexer that stacks
// the downlink carriers onto one wideband block, the DAC behind it, and
// the demultiplexer that splits a wideband block back into carriers (the
// ground verify leg). The uplink enters the payload at per-carrier
// baseband; the antenna array, receive ADC and beam-forming network are
// not modelled (DESIGN.md §1).
package frontend

import (
	"math"

	"repro/internal/dsp"
)

// ADC quantizes complex baseband samples to a given resolution, modelling
// a converter between the payload's analog section and its digital
// functions. Inputs beyond full scale clip, as in hardware.
type ADC struct {
	fullScale float64
	step      float64
}

// NewADC creates a converter with the given resolution (2..24 bits per
// I/Q component) and full-scale amplitude.
func NewADC(bits int, fullScale float64) *ADC {
	if bits < 2 || bits > 24 {
		panic("frontend: ADC bits out of range")
	}
	if fullScale <= 0 {
		panic("frontend: ADC full scale must be positive")
	}
	return &ADC{fullScale: fullScale, step: 2 * fullScale / float64(int64(1)<<uint(bits))}
}

// ConvertInto quantizes a block: it writes the quantized samples into
// dst (at least len(in) long; dst == in is allowed) and returns
// dst[:len(in)]. An ADC holds no per-stream state, so one converter may
// serve many streams concurrently.
func (a *ADC) ConvertInto(dst, in dsp.Vec) dsp.Vec {
	dst = dst[:len(in)]
	for i, s := range in {
		dst[i] = complex(a.q(real(s)), a.q(imag(s)))
	}
	return dst
}

// q rounds x to the grid, clipped to full scale. An exact zero (most of
// an idle grid) is its own quantisation: Round(±0/step)·step is ±0.
func (a *ADC) q(x float64) float64 {
	if x == 0 {
		return x
	}
	if x > a.fullScale-a.step/2 {
		x = a.fullScale - a.step/2
	}
	if x < -a.fullScale+a.step/2 {
		x = -a.fullScale + a.step/2
	}
	return math.Round(x/a.step) * a.step
}

// DAC is the transmit-side converter; in this model it is a transparent
// quantizer at the same resolution (reconstruction filtering is part of
// the analog section, which the simulation treats as ideal), converting
// as the ADC does.
type DAC struct{ ADC }

// NewDAC creates the converter.
func NewDAC(bits int, fullScale float64) *DAC { return &DAC{*NewADC(bits, fullScale)} }
