package dsp

import "math"

// NCO is a numerically controlled oscillator producing exp(j 2 pi f n + phi).
// It is the digital local oscillator used by the payload's down-conversion
// (DDC) and up-conversion stages (LO1, LO2a/b in Fig 2 of the paper).
//
// The phase is not accumulated sample by sample: the oscillator keeps an
// anchor phase and a sample counter and derives everything from those. A
// block is mixed by one complex multiply per sample — a phasor advanced
// by exp(j 2 pi f) and re-anchored from the counter every ncoAnchor
// samples, so neither its modulus nor its phase drifts however long the
// stream runs.
type NCO struct {
	freq  float64 // cycles per sample
	phase float64 // radians at the anchor sample (n == 0)
	n     int64   // samples produced since the anchor
}

// ncoAnchor is how many samples the phasor recurrence runs between exact
// re-anchors (one math.Sincos each): rounding grows by ~1e-16 a step, so
// a few hundred steps stay ~1e-14 from the closed form.
const ncoAnchor = 256

// NewNCO creates an oscillator at normalized frequency freq (cycles/sample)
// with initial phase radians.
func NewNCO(freq, phase float64) *NCO { return &NCO{freq: freq, phase: phase} }

// phaseAt returns the phase of sample n. The cycle count freq·n is
// reduced to its fractional part before it is scaled: hi − round(hi) is
// exact and the FMA recovers what rounding the product to hi lost, so
// the error does not grow with n.
func (o *NCO) phaseAt(n int64) float64 {
	x := float64(n)
	hi := o.freq * x
	return o.phase + 2*math.Pi*(hi-math.Round(hi)+math.FMA(o.freq, x, -hi))
}

// MixInto multiplies the input block by the oscillator (frequency
// translation): it writes the mixed block into dst (at least len(in)
// long; dst == in is allowed) and returns dst[:len(in)].
func (o *NCO) MixInto(dst, in Vec) Vec {
	dst = dst[:len(in)]
	o.mixAt(dst, in, o.n)
	o.n += int64(len(in))
	return dst
}

// mixAt mixes in as samples n, n+1, … of the oscillator's stream into
// dst without touching the counter, so it may run concurrently with
// itself on one oscillator. Each ncoAnchor block is a chain of its own,
// so four run side by side: the loop waits on one complex multiply per
// four samples, and each chain does what it would alone.
func (o *NCO) mixAt(dst, in Vec, n int64) {
	const k = ncoAnchor
	s, c := math.Sincos(2 * math.Pi * o.freq)
	rot := complex(c, s)
	for ; len(in) >= 4*k; in, dst, n = in[4*k:], dst[4*k:], n+4*k {
		x0, x1, x2, x3 := (*[k]complex128)(in), (*[k]complex128)(in[k:]), (*[k]complex128)(in[2*k:]), (*[k]complex128)(in[3*k:])
		d0, d1, d2, d3 := (*[k]complex128)(dst), (*[k]complex128)(dst[k:]), (*[k]complex128)(dst[2*k:]), (*[k]complex128)(dst[3*k:])
		p0, p1, p2, p3 := o.phasor(n), o.phasor(n+k), o.phasor(n+2*k), o.phasor(n+3*k)
		for i := range x0 {
			d0[i], d1[i], d2[i], d3[i] = x0[i]*p0, x1[i]*p1, x2[i]*p2, x3[i]*p3
			p0, p1, p2, p3 = p0*rot, p1*rot, p2*rot, p3*rot
		}
	}
	for len(in) > 0 {
		m := min(len(in), k)
		p, d := o.phasor(n), dst[:m]
		for i, x := range in[:m] {
			d[i] = x * p
			p *= rot
		}
		in, dst, n = in[m:], dst[m:], n+int64(m)
	}
}

// phasor returns the oscillator's exact value at sample n.
func (o *NCO) phasor(n int64) complex128 {
	s, c := math.Sincos(o.phaseAt(n))
	return complex(c, s)
}

// ddcTile is how many input samples a DDC mixes before it filters them:
// the mixed tile and the taps stay in the L1 cache.
const ddcTile = 1024

// DDC is a digital down-converter: an NCO mixer followed by a lowpass FIR
// evaluated only at the samples the decimator keeps. One DDC per carrier
// implements the payload DEMUX for a multi-frequency (MF-TDMA) uplink.
type DDC struct {
	nco   NCO       // mixer frequency; the sample counter lives in ddcState
	taps  []float64 // channel filter, reversed
	decim int
	st    ddcState // the stream ProcessInto serves; ext taken on its first call
}

// ddcState is where a conversion stands in its stream.
type ddcState struct {
	ext   Vec   // len(taps)-1 mixed samples of history, then one mixed tile
	n     int64 // stream index of the next input sample
	first int   // offset from the next input sample to the next kept output
	quiet bool  // the history is all zero
}

// NewDDC builds a down-converter that translates a carrier at normalized
// frequency freq to baseband, lowpass filters with the given cutoff and
// ntaps, and decimates by decim.
func NewDDC(freq, cutoff float64, ntaps, decim int) *DDC {
	if decim < 1 {
		panic("dsp: NewDDC decim must be >= 1")
	}
	return &DDC{
		nco:   NCO{freq: -freq},
		taps:  reversed(LowpassTaps(cutoff, ntaps)),
		decim: decim,
		st:    ddcState{quiet: true},
	}
}

// OutLen returns how many samples the next ProcessInto call will emit
// for a block of n input samples, given the current decimation phase.
func (d *DDC) OutLen(n int) int { return d.kept(d.st.first, n) }

// kept counts the outputs at offsets first, first+decim, … below n.
func (d *DDC) kept(first, n int) int {
	if first >= n {
		return 0
	}
	return (n - first + d.decim - 1) / d.decim
}

// ProcessInto translates, filters and decimates a block: the decimated
// baseband is written into dst (at least OutLen(len(in)) long, not
// aliasing in). A DDC carries stream state, so it serves one stream at
// a time.
func (d *DDC) ProcessInto(dst, in Vec) Vec {
	if d.st.ext == nil {
		d.st.ext = NewVec(len(d.taps) - 1 + ddcTile)
	}
	return dst[:d.convert(&d.st, dst, in)]
}

// ProcessWindowInto writes into dst outputs lo..hi-1 of what a DDC in
// its initial state emits for block (0 <= lo <= hi <= its OutLen), bit
// for bit, at the cost of those outputs plus one filter length of input.
// It starts mixing where ProcessInto anchors its oscillator, on a
// multiple of ncoAnchor. It reads and writes no stream state, so windows
// of a block may be converted concurrently and split anywhere.
func (d *DDC) ProcessWindowInto(dst, block Vec, lo, hi int) Vec {
	if hi <= lo {
		return dst[:0]
	}
	h := len(d.taps) - 1
	from := max(lo*d.decim-h, 0) / ncoAnchor * ncoAnchor
	st := ddcState{ext: GetVec(h + ddcTile), n: int64(from), first: lo*d.decim - from, quiet: true}
	clear(st.ext[:h])
	k := d.convert(&st, dst[:hi-lo], block[from:(hi-1)*d.decim+1])
	PutVec(st.ext)
	return dst[:k]
}

// convert advances st over in a tile at a time: mix, then evaluate the
// channel filter at the only outputs the decimator keeps. A tile of
// zeros behind a history of zeros is not mixed or filtered — its outputs
// would be sums of zero products — so an idle stretch of the band costs
// a scan.
func (d *DDC) convert(st *ddcState, dst, in Vec) int {
	h := len(d.taps) - 1
	k := 0
	for len(in) > 0 {
		m := min(len(in), ddcTile)
		out := dst[k : k+d.kept(st.first, m)]
		if st.quiet && allZero(in[:m]) {
			clear(out)
		} else {
			e := st.ext[:h+m]
			d.nco.mixAt(e[h:], in[:m], st.n)
			if len(out) > 0 {
				filterInto(out, 1, e[st.first:], d.decim, d.taps, len(out))
			}
			copy(e, e[m:])
			st.quiet = allZero(e[:h])
		}
		k += len(out)
		st.first += len(out)*d.decim - m
		st.n += int64(m)
		in = in[m:]
	}
	return k
}

// DUC is a digital up-converter: polyphase interpolation through the
// image-reject lowpass, then NCO mixing to the carrier. It is the
// transmit-side dual of DDC, used by the payload Tx section.
type DUC struct {
	nco   *NCO
	ip    *interpolator
	carry int    // inputs of the next block the filter tail of the last reaches
	cover []Span // ProcessRunsInto's tiles
}

// Span is the half-open sample range [Lo, Hi).
type Span struct{ Lo, Hi int }

// NewDUC builds an up-converter interpolating by interp and translating
// baseband to normalized frequency freq.
func NewDUC(freq, cutoff float64, ntaps, interp int) *DUC {
	if interp < 1 || ntaps > DUCTile*interp {
		panic("dsp: NewDUC needs interp >= 1 and ntaps <= DUCTile*interp")
	}
	return &DUC{
		nco: NewNCO(freq, 0),
		ip:  newInterpolator(LowpassTaps(cutoff, ntaps), interp, float64(interp)),
	}
}

// OutLen returns how many samples ProcessInto emits for a block of n
// input samples.
func (u *DUC) OutLen(n int) int { return n * u.ip.l }

// DUCTile is how many input samples a DUC interpolates before it mixes
// their outputs, while they are still in the L1 cache.
const DUCTile = 256

// ProcessInto interpolates, filters and up-converts a baseband block:
// the output is written into dst (at least OutLen(len(in)) long, not
// aliasing in). A DUC carries stream state, so it serves one
// stream at a time.
func (u *DUC) ProcessInto(dst, in Vec) Vec { return u.ProcessRunsInto(dst, in, []Span{{Hi: len(in)}}) }

// Cover appends to dst, merged and in order, the tiles of an n-sample
// block that ProcessRunsInto computes when only runs (sorted, disjoint)
// may be nonzero: those that meet a run, its filter tail, or the tail of
// the previous block. The DUC's output is zero everywhere else.
func (u *DUC) Cover(dst, runs []Span, n int) []Span {
	add := func(lo, hi int) {
		lo, hi = lo/DUCTile*DUCTile, min((hi+DUCTile-1)/DUCTile*DUCTile, n)
		if k := len(dst) - 1; k >= 0 && lo <= dst[k].Hi {
			dst[k].Hi = max(dst[k].Hi, hi)
		} else if lo < hi {
			dst = append(dst, Span{lo, hi})
		}
	}
	if u.carry > 0 {
		add(0, u.carry)
	}
	for _, r := range runs {
		add(r.Lo, r.Hi+u.ip.j-1) // j-1 more inputs see r in their window
	}
	return dst
}

// ProcessRunsInto is ProcessInto for a block that is zero outside runs
// (sorted, disjoint): it computes only Cover's tiles and leaves the rest
// of dst, where ProcessInto's output is zero, as it was. The oscillator
// moves over the whole block, so the next block lands where it should.
func (u *DUC) ProcessRunsInto(dst, in Vec, runs []Span) Vec {
	dst = dst[:len(in)*u.ip.l]
	u.cover = u.Cover(u.cover[:0], runs, len(in))
	for _, c := range u.cover {
		for off := c.Lo; off < c.Hi; off += DUCTile {
			u.TileInto(dst[off*u.ip.l:], in, off)
		}
	}
	u.EndBlock(in, runs)
	return dst
}

// TileInto writes into dst, and returns, what ProcessRunsInto computes
// for inputs off..min(off+DUCTile, len(in))-1 of the block in, one of
// Cover's tiles. It moves no stream state, so a block's tiles may be
// computed concurrently; EndBlock then moves the stream past the block.
func (u *DUC) TileInto(dst, in Vec, off int) Vec {
	end, l := min(off+DUCTile, len(in)), u.ip.l
	if off == 0 {
		dst = u.ip.outputs(dst, in[:end])
	} else {
		dst = dst[:(end-off)*l]
		u.ip.run(dst, in[off-u.ip.j+1:end])
	}
	u.nco.mixAt(dst, dst, u.nco.n+int64(off*l))
	return dst
}

// EndBlock moves the stream (filter history, oscillator, carried tail)
// past the block in, zero outside runs, once TileInto has computed it.
func (u *DUC) EndBlock(in Vec, runs []Span) {
	n := len(in)
	u.ip.push(in)
	u.nco.n += int64(n * u.ip.l)
	u.carry = max(u.carry-n, 0)
	if k := len(runs) - 1; k >= 0 {
		u.carry = max(u.carry, runs[k].Hi+u.ip.j-1-n)
	}
}
