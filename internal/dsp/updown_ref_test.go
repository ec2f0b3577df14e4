package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The kernels the polyphase banks and the recurrence oscillator replaced,
// kept as references: a per-sample Sin/Cos phase accumulator, zero-stuff
// + full-rate FIR + mix, and mix + full-rate FIR + discard. The tests
// below hold the production kernels to them sample for sample.

type refNCO struct{ freq, phase float64 }

// wrapPhase reduces p to [-pi, pi].
func wrapPhase(p float64) float64 { return math.Remainder(p, 2*math.Pi) }

// refMixAt is mixAt as one phasor chain, block after block: the
// reference the interleaved chains are held to bit for bit.
func refMixAt(o *NCO, dst, in Vec, n int64) {
	s, c := math.Sincos(2 * math.Pi * o.freq)
	rot := complex(c, s)
	for len(in) > 0 {
		m := min(len(in), ncoAnchor)
		s, c := math.Sincos(o.phaseAt(n))
		p := complex(c, s)
		d := dst[:m]
		for i, x := range in[:m] {
			d[i] = x * p
			p *= rot
		}
		in, dst, n = in[m:], dst[m:], n+int64(m)
	}
}

func (o *refNCO) next() complex128 {
	s := complex(math.Cos(o.phase), math.Sin(o.phase))
	o.phase = wrapPhase(o.phase + 2*math.Pi*o.freq)
	return s
}

// refFIR is the dense streaming filter: history ++ input, one full
// convolution sum per input sample.
type refFIR struct {
	taps []float64
	hist Vec
}

func newRefFIR(taps []float64) *refFIR {
	return &refFIR{taps: taps, hist: NewVec(len(taps) - 1)}
}

func (f *refFIR) process(in Vec) Vec {
	n := len(f.taps)
	ext := append(f.hist.Clone(), in...)
	out := NewVec(len(in))
	for i := range in {
		for j := 0; j < n; j++ {
			out[i] += ext[i+j] * complex(f.taps[n-1-j], 0)
		}
	}
	copy(f.hist, ext[len(ext)-(n-1):])
	return out
}

type refDUC struct {
	nco    refNCO
	lp     *refFIR
	interp int
}

func newRefDUC(freq, cutoff float64, ntaps, interp int) *refDUC {
	return &refDUC{nco: refNCO{freq: freq}, lp: newRefFIR(LowpassTaps(cutoff, ntaps)), interp: interp}
}

func (u *refDUC) process(in Vec) Vec {
	up := NewVec(len(in) * u.interp)
	for i, s := range in {
		up[i*u.interp] = s * complex(float64(u.interp), 0)
	}
	out := u.lp.process(up)
	for i := range out {
		out[i] *= u.nco.next()
	}
	return out
}

type refDDC struct {
	nco           refNCO
	lp            *refFIR
	decim, dPhase int
}

func newRefDDC(freq, cutoff float64, ntaps, decim int) *refDDC {
	return &refDDC{nco: refNCO{freq: -freq}, lp: newRefFIR(LowpassTaps(cutoff, ntaps)), decim: decim}
}

func (d *refDDC) process(in Vec) Vec {
	mixed := NewVec(len(in))
	for i, s := range in {
		mixed[i] = s * d.nco.next()
	}
	filtered := d.lp.process(mixed)
	var out Vec
	for i, s := range filtered {
		if (d.dPhase+i)%d.decim == 0 {
			out = append(out, s)
		}
	}
	d.dPhase = (d.dPhase + len(in)) % d.decim
	return out
}

// unitVec is complex Gaussian noise of unit mean power.
func unitVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(math.Sqrt(0.5), 0)
	}
	return v
}

// chunks splits n into the given lengths, cycling, so streams are fed in
// pieces that are not multiples of any rate-change factor.
func chunks(n int, sizes ...int) []int {
	var out []int
	for i := 0; n > 0; i++ {
		c := min(sizes[i%len(sizes)], n)
		out = append(out, c)
		n -= c
	}
	return out
}

// ducOut and ddcOut run one block through a bank into a fresh block of
// exactly the length OutLen announces.
func ducOut(u *DUC, in Vec) Vec { return u.ProcessInto(NewVec(u.OutLen(len(in))), in) }
func ddcOut(d *DDC, in Vec) Vec { return d.ProcessInto(NewVec(d.OutLen(len(in))), in) }

// The engine's bank shape first, then shapes that exercise ragged branch
// lengths, an even tap count, and no rate change at all.
var bankShapes = []struct{ ntaps, l int }{{95, 4}, {63, 2}, {64, 3}, {31, 5}, {33, 1}, {3, 4}}

func TestDUCMatchesZeroStuffReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range bankShapes {
		in := unitVec(rng, 1500)
		want := newRefDUC(0.17, 0.09, sh.ntaps, sh.l).process(in)

		oneShot := ducOut(NewDUC(0.17, 0.09, sh.ntaps, sh.l), in)
		if d := rmsDiff(oneShot, want); d > 1e-9 {
			t.Fatalf("%d taps x%d: one-shot RMS %g from the reference", sh.ntaps, sh.l, d)
		}
		// Chunked, into a shared oversized block, against the one-shot.
		u := NewDUC(0.17, 0.09, sh.ntaps, sh.l)
		var got Vec
		dst := NewVec(u.OutLen(len(in)))
		off := 0
		for _, c := range chunks(len(in), 7, 301, 1, 23, 258, 5) {
			got = append(got, u.ProcessInto(dst, in[off:off+c])...)
			off += c
		}
		if d := rmsDiff(got, oneShot); d > 1e-12 {
			t.Fatalf("%d taps x%d: chunked RMS %g from one-shot", sh.ntaps, sh.l, d)
		}
	}
}

func TestDDCMatchesFilterDiscardReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range bankShapes {
		in := unitVec(rng, 5000)
		want := newRefDDC(0.17, 0.09, sh.ntaps, sh.l).process(in)

		oneShot := ddcOut(NewDDC(0.17, 0.09, sh.ntaps, sh.l), in)
		if d := rmsDiff(oneShot, want); d > 1e-9 {
			t.Fatalf("%d taps /%d: one-shot RMS %g from the reference", sh.ntaps, sh.l, d)
		}
		// Chunk lengths that are not multiples of the decimation walk the
		// decimation phase through every residue.
		d, ref := NewDDC(0.17, 0.09, sh.ntaps, sh.l), newRefDDC(0.17, 0.09, sh.ntaps, sh.l)
		var got Vec
		dst := NewVec(len(in))
		off := 0
		for _, c := range chunks(len(in), 7, 1301, 1, 23, 1024, 5, 2) {
			n := d.OutLen(c)
			out := d.ProcessInto(dst, in[off:off+c])
			if len(out) != n || len(out) != len(ref.process(in[off:off+c])) {
				t.Fatalf("%d taps /%d: chunk of %d emitted %d, OutLen said %d", sh.ntaps, sh.l, c, len(out), n)
			}
			got = append(got, out...)
			off += c
		}
		if d := rmsDiff(got, oneShot); d > 1e-12 {
			t.Fatalf("%d taps /%d: chunked RMS %g from one-shot", sh.ntaps, sh.l, d)
		}
	}
}

// A window is the matching slice of a fresh converter's whole-block
// output, bit for bit, wherever it starts, and leaves the converter's
// stream alone.
func TestDDCWindowMatchesWholeBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, sh := range bankShapes {
		in := unitVec(rng, 4099)
		whole := ddcOut(NewDDC(-0.21, 0.09, sh.ntaps, sh.l), in)
		d := NewDDC(-0.21, 0.09, sh.ntaps, sh.l)
		ddcOut(d, in[:77]) // stream state a window must neither read nor move
		before := d.OutLen(100)
		dst := NewVec(len(whole))
		for _, w := range [][2]int{{0, len(whole)}, {0, 1}, {3, 40}, {len(whole) / 2, len(whole)/2 + 300}, {len(whole) - 1, len(whole)}, {5, 5}} {
			got := d.ProcessWindowInto(dst, in, w[0], w[1])
			if len(got) != w[1]-w[0] {
				t.Fatalf("%d taps /%d: window %v has %d samples", sh.ntaps, sh.l, w, len(got))
			}
			for i, x := range got {
				if !sameBits(x, whole[w[0]+i]) {
					t.Fatalf("%d taps /%d: window %v sample %d is %v, the whole block's %v", sh.ntaps, sh.l, w, i, x, whole[w[0]+i])
				}
			}
		}
		if d.OutLen(100) != before {
			t.Fatalf("%d taps /%d: a window moved the decimation phase", sh.ntaps, sh.l)
		}
	}
}

func TestPulseShaperMatchesZeroStuffReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	syms := unitVec(rng, 400)
	up := NewVec(len(syms) * 4)
	for i, s := range syms {
		up[i*4] = s
	}
	want := newRefFIR(RRCTaps(0.35, 4, 10)).process(up)
	sh := NewPulseShaper(0.35, 4, 10)
	var got Vec
	off := 0
	for _, c := range chunks(len(syms), 3, 50, 1, 11) {
		got = append(got, sh.ProcessInto(NewVec(4*c), syms[off:off+c])...)
		off += c
	}
	if d := rmsDiff(got, want); d > 1e-12 {
		t.Fatalf("shaper RMS %g from zero-stuff + FIR", d)
	}
	sh.Reset()
	if d := rmsDiff(sh.ProcessInto(NewVec(len(up)), syms), want); d > 1e-12 {
		t.Fatalf("after Reset: RMS %g", d)
	}
}

// scanDUC is the DUC as it was before it followed a plan: it found the
// tiles it could skip by scanning for zeros in and behind them, and only
// moved its oscillator over those.
type scanDUC struct {
	*DUC
	idle bool // the filter history is all zero
}

func (u *scanDUC) process(in Vec) Vec {
	dst := NewVec(u.OutLen(len(in)))
	for off := 0; off < len(in); off += DUCTile {
		end := min(off+DUCTile, len(in))
		o := dst[off*u.ip.l : end*u.ip.l]
		if u.idle && allZero(in[off:end]) {
			u.nco.n += int64(len(o))
		} else {
			u.nco.MixInto(o, u.ip.processInto(o, in[off:end]))
			u.idle = allZero(u.ip.ext[:u.ip.j-1])
		}
	}
	return dst
}

// ducRunsOut runs one block through ProcessRunsInto into a fresh block.
func ducRunsOut(u *DUC, in Vec, runs []Span) Vec {
	return u.ProcessRunsInto(NewVec(u.OutLen(len(in))), in, runs)
}

// An idle block costs no tile but the filter tail of the last busy one,
// and the oscillator keeps running: a busy block after any number of
// idle ones is what an unplanned stream would have produced.
func TestDUCRunsKeepTailAndPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	busy, idle := unitVec(rng, 300), NewVec(300)
	seq := []Vec{busy, idle, idle, busy, idle}
	u, ref := NewDUC(0.13, 0.09, 95, 4), newRefDUC(0.13, 0.09, 95, 4)
	for i, in := range seq {
		var runs []Span
		if i%3 == 0 {
			runs = []Span{{0, len(in)}}
		}
		// The block right after a busy one still carries the filter tail.
		want := map[int]int{0: 300, 1: DUCTile, 2: 0, 3: 300, 4: DUCTile}[i]
		if cover := u.Cover(nil, runs, len(in)); len(cover) > 1 || len(cover) == 1 && cover[0] != (Span{0, want}) || len(cover) == 0 && want > 0 {
			t.Fatalf("block %d: cover %v, want [0, %d)", i, cover, want)
		}
		if d := rmsDiff(ducRunsOut(u, in, runs), ref.process(in)); d > 1e-9 {
			t.Fatalf("block %d: RMS %g from the reference", i, d)
		}
	}
}

// Tiles outside the runs are skipped inside a block too: a mostly idle
// stream is the reference's sample for sample on both banks, filter
// tails and oscillator phase included. The DDC finds its idle tiles by a
// scan, the DUC from the runs it is given.
func TestSparseStreamsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	sparse := func(n int, bursts ...Span) Vec {
		v := NewVec(n)
		for _, b := range bursts {
			copy(v[b.Lo:b.Hi], unitVec(rng, b.Hi-b.Lo))
		}
		return v
	}
	runs := []Span{{700, 1100}, {1101, 1130}, {4000, 4001}, {5990, 6000}}
	base := sparse(6000, runs...)
	u, refU := NewDUC(0.13, 0.09, 95, 4), newRefDUC(0.13, 0.09, 95, 4)
	wide := sparse(24000, Span{2500, 4100}, Span{9000, 9003}, Span{23990, 24000})
	d, refD := NewDDC(0.13, 0.09, 95, 4), newRefDDC(0.13, 0.09, 95, 4)
	for round := 0; round < 3; round++ { // the last block's tail crosses into the next
		if diff := rmsDiff(ducRunsOut(u, base, runs), refU.process(base)); diff > 1e-9 {
			t.Fatalf("round %d: sparse DUC RMS %g from the reference", round, diff)
		}
		if diff := rmsDiff(ddcOut(d, wide), refD.process(wide)); diff > 1e-9 {
			t.Fatalf("round %d: sparse DDC RMS %g from the reference", round, diff)
		}
	}
}

// The plan is the scan's equal: over random runs in blocks of random
// length — runs at either edge, tails that cross into the next block or
// past it, blocks of no run — ProcessRunsInto emits, sample for sample (==, under
// which the sign of a zero does not count), what the scanning DUC does.
func TestDUCRunsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, sh := range bankShapes {
		u, ref := NewDUC(0.13, 0.09, sh.ntaps, sh.l), &scanDUC{NewDUC(0.13, 0.09, sh.ntaps, sh.l), true}
		for b := 0; b < 40; b++ {
			n := 1 + rng.Intn(3*DUCTile)
			if b%4 == 3 { // shorter than a filter tail
				n = 1 + rng.Intn(20)
			}
			in, runs := NewVec(n), []Span(nil)
			for lo := rng.Intn(n); lo < n && rng.Intn(4) > 0; {
				hi := min(lo+1+rng.Intn(200), n)
				copy(in[lo:hi], unitVec(rng, hi-lo))
				runs = append(runs, Span{lo, hi})
				lo = hi + rng.Intn(600)
			}
			got, want := ducRunsOut(u, in, runs), ref.process(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d taps by %d, block %d (runs %v) sample %d: %v, scan %v", sh.ntaps, sh.l, b, runs, i, got[i], want[i])
				}
			}
		}
	}
}

// The skips are exact: over a busy, idle, busy, idle sequence both banks
// emit, sample for sample, the value the same kernels produce when
// nothing is skipped (compared with ==, under which the sign of a zero
// does not count). Block lengths are whole tiles so the unskipped
// composition re-anchors its oscillator at the same samples.
func TestIdleSkipIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const blocks = 6
	t.Run("DUC", func(t *testing.T) {
		const n = 4 * DUCTile
		u, ref := NewDUC(0.13, 0.09, 95, 4), NewDUC(0.13, 0.09, 95, 4)
		got, want := NewVec(4*n), NewVec(4*n)
		for b := 0; b < blocks; b++ {
			in, runs := NewVec(n), []Span(nil)
			if b%2 == 0 || b == 3 {
				copy(in[n/3:], unitVec(rng, n/2))
				runs = []Span{{n / 3, n/3 + n/2}}
			}
			clear(got)
			u.ProcessRunsInto(got, in, runs)
			ref.nco.MixInto(want, ref.ip.processInto(want, in))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("block %d sample %d: %v, unskipped %v", b, i, got[i], want[i])
				}
			}
		}
	})
	t.Run("DDC", func(t *testing.T) {
		const n = 4 * ddcTile
		d := NewDDC(0.13, 0.09, 95, 4)
		var whole, got Vec
		for b := 0; b < blocks; b++ {
			in := NewVec(n)
			if b%2 == 0 || b == 3 {
				copy(in[n/3:], unitVec(rng, n/2))
			}
			whole = append(whole, in...)
			got = append(got, ddcOut(d, in)...)
		}
		h := len(d.taps) - 1
		ext := NewVec(h + len(whole))
		d.nco.mixAt(ext[h:], whole, 0)
		want := NewVec(len(whole) / 4)
		filterInto(want, 1, ext, 4, d.taps, len(want))
		if len(got) != len(want) {
			t.Fatalf("%d outputs, unskipped %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sample %d: %v, unskipped %v", i, got[i], want[i])
			}
		}
	})
}

func TestNCOMatchesSinCosReference(t *testing.T) {
	o, ref := NewNCO(0.1234, 0.7), refNCO{freq: 0.1234, phase: 0.7}
	in := NewVec(3000)
	for i := range in {
		in[i] = 1
	}
	// Two calls on one stream, the second starting off an anchor.
	got := o.MixInto(NewVec(2), in[:2])
	got = append(got, o.MixInto(NewVec(2998), in[:2998])...)
	for i, g := range got {
		if w := ref.next(); cmplx.Abs(g-w) > 1e-9 {
			t.Fatalf("sample %d: %v, reference %v", i, g, w)
		}
	}
}

// Ten million samples through the recurrence: the phasor stays on the
// unit circle and on the closed-form phase. The closed form is evaluated
// in exact integer arithmetic (freq = k/2^20 cycles/sample).
func TestNCOLongRunStaysOnClosedForm(t *testing.T) {
	const (
		k     = 130477 // freq = k / 2^20 ≈ 0.1244
		total = 10_000_000
		block = 20736
	)
	o := NewNCO(float64(k)/(1<<20), 0)
	in, out := NewVec(block), NewVec(block)
	for i := range in {
		in[i] = 1
	}
	var worstMod, worstPhase float64
	for n := 0; n < total; n += block {
		o.MixInto(out, in)
		for i, p := range out {
			worstMod = math.Max(worstMod, math.Abs(cmplx.Abs(p)-1))
			turns := float64((int64(n+i)*k)%(1<<20)) / (1 << 20)
			worstPhase = math.Max(worstPhase, math.Abs(wrapPhase(cmplx.Phase(p)-2*math.Pi*turns)))
		}
	}
	if worstMod > 1e-9 || worstPhase > 1e-9 {
		t.Fatalf("after %d samples: |phasor|-1 up to %g, phase error up to %g", total, worstMod, worstPhase)
	}
}
