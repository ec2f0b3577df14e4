package dsp

import (
	"math"
	"math/rand"
)

// Channel models the space link impairments between user terminals and the
// regenerative payload: AWGN, carrier phase/frequency offset, fractional
// timing offset and gain. All experiments use it to produce realistic
// received waveforms; it is deterministic under a fixed seed.
type Channel struct {
	rng *rand.Rand

	// EsN0dB is the symbol-energy-to-noise-density ratio applied by
	// AddNoise, interpreted against the measured block power and the
	// samples-per-symbol factor.
	EsN0dB float64
	// SPS is the oversampling factor used to convert Es/N0 to per-sample SNR.
	SPS int
	// PhaseOffset (radians) and FreqOffset (cycles/sample) rotate the signal.
	PhaseOffset float64
	FreqOffset  float64
	// FreqDrift is a Doppler ramp: it is added to FreqOffset after every
	// Apply call, so a channel instance fed one block per frame models a
	// carrier that drifts frame to frame (e.g. a terminal on an inclined
	// orbit). Zero keeps the offset constant.
	FreqDrift float64
	// TimingOffset is a sample delay applied via interpolation; the
	// integer part is a whole-sample shift, the fractional remainder is
	// interpolated, so any real offset (negative, >= 1) is legal.
	TimingOffset float64
	// Gain scales the signal before noise.
	Gain float64

	// nco drives the phase/frequency rotation; reused across ApplyInPlace
	// calls (reinitialized per block, so behaviour matches a fresh NCO).
	nco NCO
}

// NewChannel creates a channel with the given deterministic seed and
// unity gain, no offsets, and effectively noiseless Es/N0.
func NewChannel(seed int64) *Channel {
	return &Channel{
		rng:    rand.New(rand.NewSource(seed)),
		EsN0dB: 300, // effectively noise-free until configured
		SPS:    1,
		Gain:   1,
	}
}

// NewChannelWith creates a channel preconfigured with the given Es/N0
// (dB) and oversampling factor.
func NewChannelWith(seed int64, esn0dB float64, sps int) *Channel {
	c := NewChannel(seed)
	c.EsN0dB, c.SPS = esn0dB, sps
	return c
}

// Reseed reinitializes the channel's noise generator to the given seed —
// the recycled-instance equivalent of constructing a fresh channel, with
// an identical subsequent random stream. Engines that apply one
// deterministic per-burst channel draw a pooled instance, Reseed it, and
// avoid the per-burst generator allocation.
func (c *Channel) Reseed(seed int64) { c.rng.Seed(seed) }

// Apply passes the block through the configured impairments in order:
// gain, timing offset, phase/frequency rotation, AWGN. The input block
// is left untouched.
func (c *Channel) Apply(in Vec) Vec {
	return c.ApplyInPlace(in.Clone())
}

// ApplyInPlace is Apply operating directly on the caller's block —
// the burst path writes modulated waveforms straight into frame slot
// buffers and impairs them there, so no per-burst waveform clone exists.
// The fractional-delay stage interpolates out of a scratch copy from the
// block allocator; output is identical to Apply.
func (c *Channel) ApplyInPlace(v Vec) Vec {
	if c.Gain != 1 {
		v.Scale(complex(c.Gain, 0))
	}
	if c.TimingOffset != 0 {
		c.fractionalDelayInPlace(v, c.TimingOffset)
	}
	if c.PhaseOffset != 0 || c.FreqOffset != 0 {
		c.nco = NCO{freq: c.FreqOffset, phase: c.PhaseOffset}
		c.nco.MixInto(v, v)
	}
	c.addNoise(v)
	c.FreqOffset += c.FreqDrift
	return v
}

// addNoise adds complex AWGN sized for the configured Es/N0 against the
// block's own measured power. A silent block (all-idle downlink frames
// are legal) has no signal energy to scale against, so it stays silent
// rather than receiving full-power noise.
func (c *Channel) addNoise(v Vec) {
	if c.EsN0dB >= 300 {
		return
	}
	p := v.Power()
	if p == 0 {
		return
	}
	sps := max(c.SPS, 1)
	// Es = p * sps (energy per symbol across sps samples);
	// per-sample complex noise variance N0 = Es / (Es/N0).
	esn0 := FromDB(c.EsN0dB)
	n0 := p * float64(sps) / esn0
	sigma := math.Sqrt(n0 / 2)
	for i := range v {
		v[i] += complex(c.rng.NormFloat64()*sigma, c.rng.NormFloat64()*sigma)
	}
}

// AWGN adds noise of the given per-sample complex variance to v in place.
func (c *Channel) AWGN(v Vec, variance float64) {
	sigma := math.Sqrt(variance / 2)
	for i := range v {
		v[i] += complex(c.rng.NormFloat64()*sigma, c.rng.NormFloat64()*sigma)
	}
}

// fractionalDelayInPlace shifts the block by mu samples in place using
// cubic interpolation; the first output sample corresponds to input
// position mu. The integer part of mu becomes a whole-sample index shift
// and only the fractional remainder (always normalized into [0, 1)) is
// interpolated, so negative and >= 1 offsets are handled exactly rather
// than extrapolating the cubic outside its design range. The block edges
// clamp to the first/last sample, matching Farrow.InterpAt. The input
// snapshot is a block taken from GetVec for the call.
func (c *Channel) fractionalDelayInPlace(v Vec, mu float64) {
	in := GetVec(len(v))
	defer PutVec(in)
	copy(in, v)
	shift := int(math.Floor(mu))
	frac := mu - float64(shift) // in [0, 1)
	var f Farrow
	for i := range v {
		x0, x1, x2, x3 := window(in, i+shift)
		v[i] = f.Interp(x0, x1, x2, x3, frac)
	}
}
