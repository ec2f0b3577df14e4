package modem

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/dsp"
)

// The timing recovery as it was written before the shared rotator table
// and the call-free Farrow strobes, kept as the reference: a single-bin
// Fourier coefficient that evaluates cos and sin per sample, and a cubic
// interpolator with complex division and a clamping closure per sample.
// Oerder-Meyr, Gardner and whole BurstResults must match it bit for bit.

func refFourierCoefficient(x []float64, f float64) complex128 {
	var acc complex128
	for k, v := range x {
		ph := -2 * math.Pi * f * float64(k)
		acc += complex(v*math.Cos(ph), v*math.Sin(ph))
	}
	return acc
}

func refInterpAt(x dsp.Vec, pos float64) complex128 {
	if len(x) == 0 {
		return 0
	}
	i := min(max(int(pos), 0), len(x)-1)
	idx := func(k int) complex128 { return x[min(max(k, 0), len(x)-1)] }
	x0, x1, x2, x3 := idx(i-1), idx(i), idx(i+1), idx(i+2)
	m := complex(pos-float64(i), 0)
	c1 := x2 - x0/3 - x1/2 - x3/6
	c2 := (x0+x2)/2 - x1
	c3 := (x3-x0)/6 + (x1-x2)/2
	return ((c3*m+c2)*m+c1)*m + x1
}

// refRecover is OerderMeyr.RecoverInto on the references.
func refRecover(sps int, in dsp.Vec) (dsp.Vec, float64) {
	x := make([]float64, len(in))
	for i, s := range in {
		x[i] = real(s)*real(s) + imag(s)*imag(s)
	}
	tau := -float64(sps) / (2 * math.Pi) * cmplx.Phase(refFourierCoefficient(x, 1/float64(sps)))
	start := tau
	for start < 0 {
		start += float64(sps)
	}
	var out dsp.Vec
	for pos := start; pos <= float64(len(in)-1); pos += float64(sps) {
		out = append(out, refInterpAt(in, pos))
	}
	return out, tau
}

// refGardner is the streaming Gardner synchronizer's first block from
// rest, gains 0.05 and 0.0005, on the reference interpolator.
func refGardner(in dsp.Vec) dsp.Vec {
	const kp, ki = 0.05, 0.0005
	pos, vel := 3.0, 0.0
	var prev complex128
	var out dsp.Vec
	for pos+2 < float64(len(in)-2) {
		mid, cur := refInterpAt(in, pos-1), refInterpAt(in, pos)
		if len(out) > 0 {
			e := GardnerError(prev, mid, cur)
			vel += ki * e
			adj := kp*e + vel
			if adj > 0.5 {
				adj = 0.5
			}
			if adj < -0.5 {
				adj = -0.5
			}
			pos += 2 - adj
		} else {
			pos += 2
		}
		out = append(out, cur)
		prev = cur
	}
	return out
}

// refDemodulate is d.Demodulate with timing recovery on the references.
func refDemodulate(d *BurstDemodulator, rx dsp.Vec) BurstResult {
	d.mf.Reset()
	filtered := d.mf.ProcessInto(dsp.NewVec(len(rx)), rx)
	if d.mode == TimingGardner {
		return d.acquire(refGardner(filtered), 0)
	}
	return d.acquire(refRecover(d.sps, filtered))
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameVec(a, b dsp.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(real(a[i]), real(b[i])) || !sameFloat(imag(a[i]), imag(b[i])) {
			return false
		}
	}
	return true
}

func sameResult(a, b BurstResult) bool {
	if a.Found != b.Found || a.UWIndex != b.UWIndex || a.TimingUsed != b.TimingUsed ||
		len(a.Soft) != len(b.Soft) || !sameFloat(a.Phase, b.Phase) || !sameFloat(a.UWMetric, b.UWMetric) ||
		!sameFloat(a.FreqEst, b.FreqEst) || !sameFloat(a.Timing, b.Timing) {
		return false
	}
	for i := range a.Soft {
		if !sameFloat(a.Soft[i], b.Soft[i]) {
			return false
		}
	}
	return true
}

// randBlock draws a matched-filter-like block whose components are often
// ±0 (a silent slot tail) and otherwise normal.
func randBlock(rng *rand.Rand, n int) dsp.Vec {
	comp := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64()
		}
	}
	v := dsp.NewVec(n)
	for i := range v {
		v[i] = complex(comp(), comp())
	}
	return v
}

func TestFourierCoefficientPureTone(t *testing.T) {
	n := 64
	f := 0.25
	x := make([]float64, n)
	for k := range x {
		x[k] = math.Cos(2 * math.Pi * f * float64(k))
	}
	c := refFourierCoefficient(x, f)
	if math.Abs(cmplx.Abs(c)-float64(n)/2) > 1e-9 {
		t.Fatalf("tone bin magnitude %g, want %d", cmplx.Abs(c), n/2)
	}
	// Off-bin frequency content of the tone should be tiny.
	if c2 := refFourierCoefficient(x, 0.125); cmplx.Abs(c2) > 1 {
		t.Fatalf("off-bin leakage too large: %v", cmplx.Abs(c2))
	}
}

// checkRecoverBits holds EstimateOffset and RecoverInto to the
// reference on one block.
func checkRecoverBits(om *OerderMeyr, in dsp.Vec) (string, bool) {
	wantSyms, wantTau := refRecover(om.sps, in)
	if tau := om.EstimateOffset(in); !sameFloat(tau, wantTau) {
		return "EstimateOffset", false
	}
	syms, tau := om.RecoverInto(dsp.NewVec(om.MaxSymbols(len(in))), in)
	if !sameFloat(tau, wantTau) || !sameVec(syms, wantSyms) {
		return "RecoverInto", false
	}
	return "", true
}

// The shared table grows with the longest block seen; every length,
// shorter ones after a growth included, reads the same bits as the
// per-sample cos/sin reference.
func TestOerderMeyrMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, sps := range []int{4, 5, 8, 11} {
		om := NewOerderMeyr(sps)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 300, 1500, 40, 4001, 1} {
			if what, ok := checkRecoverBits(om, randBlock(rng, n)); !ok {
				t.Fatalf("sps %d len %d: %s differs from the reference", sps, n, what)
			}
		}
	}
}

// Two goroutines grow one table (an oversampling factor no other test
// uses) in opposite orders; run under -race this checks the publication
// is race-free, and every estimate still matches the reference.
func TestOerderMeyrTableGrowsConcurrently(t *testing.T) {
	lengths := []int{10, 100, 333, 1000, 2500, 5000}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			om := NewOerderMeyr(23)
			for i := range lengths {
				n := lengths[i]
				if g == 1 {
					n = lengths[len(lengths)-1-i]
				}
				if what, ok := checkRecoverBits(om, randBlock(rng, n)); !ok {
					errs <- what
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for what := range errs {
		t.Fatalf("%s differs from the reference under concurrent growth", what)
	}
}

// Whole BurstResults from the legacy chain, the full sync chain and
// Gardner timing equal those of the same demodulator with its timing
// recovery on the references, found and lost bursts alike.
func TestDemodulateMatchesReference(t *testing.T) {
	f := DefaultBurstFormat(200)
	legacy := NewBurstDemodulator(f, 0.35, 4, 10, TimingOerderMeyr)
	full := NewBurstDemodulatorSync(f, 0.35, 4, 10, TimingOerderMeyr, fullSync)
	rng := rand.New(rand.NewSource(17))
	found := map[string]int{}
	for i := 0; i < 12; i++ {
		esn0 := []float64{-3, 4, 8, 15}[i%4]
		timing := 4*rng.Float64() - 2
		phase := 2*math.Pi*rng.Float64() - math.Pi
		_, clean := syncBurst(t, int64(100+i), esn0, 0, phase, timing, 1)
		_, offset := syncBurst(t, int64(200+i), esn0, 0.2*rng.Float64()-0.1, phase, timing, 0.8)
		for _, c := range []demodCase{{"legacy", legacy, clean}, {"full-sync", full, offset}, {"full-sync/clean", full, clean}} {
			got := c.d.Demodulate(c.rx)
			got.Soft = slices.Clone(got.Soft) // the instance's buffer, which refDemodulate rewrites
			want := refDemodulate(c.d, c.rx)
			if !sameResult(got, want) {
				t.Fatalf("%s burst %d (Es/N0 %g dB): %+v, reference %+v", c.name, i, esn0, got, want)
			}
			if got.Found {
				found[c.name]++
			}
		}
	}
	if found["legacy"] < 6 || found["full-sync"] < 6 || found["full-sync/clean"] < 6 {
		t.Fatalf("too few found bursts to compare payloads: %v", found)
	}

	gf := f
	gf.PreambleLen = 256
	mod := NewBurstModulator(gf, 0.35, 2, 10)
	gardner := NewBurstDemodulator(gf, 0.35, 2, 10, TimingGardner)
	for i := 0; i < 6; i++ {
		ch := dsp.NewChannelWith(int64(300+i), []float64{0, 6, 15}[i%3], 2)
		ch.PhaseOffset = 2*math.Pi*rng.Float64() - math.Pi
		ch.TimingOffset = 2*rng.Float64() - 1
		rx := ch.Apply(mod.Modulate(randBits(rng, gf.PayloadBits())))
		got := gardner.Demodulate(rx)
		got.Soft = slices.Clone(got.Soft)
		want := refDemodulate(gardner, rx)
		if !sameResult(got, want) {
			t.Fatalf("gardner burst %d: %+v, reference %+v", i, got, want)
		}
		if got.Found {
			found["gardner"]++
		}
	}
	if found["gardner"] < 3 {
		t.Fatalf("too few found Gardner bursts to compare payloads: %v", found)
	}
}
