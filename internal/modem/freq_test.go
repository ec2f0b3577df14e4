package modem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dsp"
)

func TestFrequencyEstimateKnownOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	syms := QPSK.Map(randBits(rng, 2*512))
	for _, f := range []float64{0, 0.01, -0.02, 0.05} {
		rot := dsp.NewVec(len(syms)) // apply +f rotation
		correctFrequencyInto(rot, syms, -f)
		got := EstimateFrequencyQPSK(rot)
		if math.Abs(got-f) > 0.002 {
			t.Fatalf("f=%g: estimate %g", f, got)
		}
	}
}

func TestFrequencyEstimateUnderNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := QPSK.Map(randBits(rng, 2*1024))
	f := 0.03
	rot := dsp.NewVec(len(syms))
	correctFrequencyInto(rot, syms, -f)
	ch := dsp.NewChannelWith(3, 13, 1)
	noisy := ch.Apply(rot)
	got := EstimateFrequencyQPSK(noisy)
	if math.Abs(got-f) > 0.005 {
		t.Fatalf("noisy estimate %g want %g", got, f)
	}
}

func TestFrequencyEstimateFFTMatchesGridSweep(t *testing.T) {
	// The spectral (FFT-periodogram) coarse stage must reproduce the
	// dense half-bin grid scan it replaced across the whole E12
	// acquisition range: ±0.124 cycles/symbol at 6 dB Es/N0, burst-sized
	// sequences. Both paths share the fine parabolic polish, so they
	// must agree to well under the coarse bin width.
	rng := rand.New(rand.NewSource(7))
	n := DefaultBurstFormat(200).TotalSymbols() + 16
	syms := QPSK.Map(randBits(rng, 2*n))
	ch := dsp.NewChannelWith(7, 6, 1)
	for f := -0.124; f <= 0.1241; f += 0.008 {
		rot := dsp.NewVec(len(syms))
		correctFrequencyInto(rot, syms, -f)
		noisy := ch.Apply(rot)
		gotFFT := EstimateFrequencyQPSK(noisy)
		gotGrid := estimateFrequencyQPSKGrid(noisy)
		if math.Abs(gotFFT-gotGrid) > 5e-4 {
			t.Fatalf("f=%+.3f: fft %g vs grid %g", f, gotFFT, gotGrid)
		}
		if math.Abs(gotFFT-f) > 0.004 {
			t.Fatalf("f=%+.3f: fft estimate %g off range", f, gotFFT)
		}
	}
}

func TestFrequencyEstimateFFTAliasingPreserved(t *testing.T) {
	// Offsets beyond ±1/8 cycle/symbol alias by ±1/4 in both
	// implementations (the fourth power is blind to quarter-cycle
	// wraps); the spectral path must fold identically to the grid scan.
	rng := rand.New(rand.NewSource(8))
	syms := QPSK.Map(randBits(rng, 2*512))
	for _, c := range []struct{ applied, want float64 }{
		{0.15, -0.10},
		{-0.20, 0.05},
		{0.24, -0.01},
	} {
		rot := dsp.NewVec(len(syms))
		correctFrequencyInto(rot, syms, -c.applied)
		gotFFT := EstimateFrequencyQPSK(rot)
		gotGrid := estimateFrequencyQPSKGrid(rot)
		if math.Abs(gotFFT-c.want) > 0.002 {
			t.Fatalf("applied %+g: fft %g want alias %g", c.applied, gotFFT, c.want)
		}
		if math.Abs(gotFFT-gotGrid) > 5e-4 {
			t.Fatalf("applied %+g: fft %g vs grid %g", c.applied, gotFFT, gotGrid)
		}
	}
}

func TestFrequencyEstimateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	rng := rand.New(rand.NewSource(9))
	syms := QPSK.Map(randBits(rng, 2*264))
	EstimateFrequencyQPSK(syms) // warm pools and FFT plan
	allocs := testing.AllocsPerRun(20, func() {
		EstimateFrequencyQPSK(syms)
	})
	if allocs != 0 {
		t.Fatalf("EstimateFrequencyQPSK allocates %v per run", allocs)
	}
}

func TestCorrectFrequencyInverts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	syms := QPSK.Map(randBits(rng, 2*64))
	rot := dsp.NewVec(len(syms))
	correctFrequencyInto(rot, syms, -0.04)
	rec := dsp.NewVec(len(rot))
	correctFrequencyInto(rec, rot, 0.04)
	for i := range syms {
		d := rec[i] - syms[i]
		if real(d)*real(d)+imag(d)*imag(d) > 1e-18 {
			t.Fatalf("round trip at %d", i)
		}
	}
}

func TestFrequencyEstimateEdgeCases(t *testing.T) {
	if EstimateFrequencyQPSK(dsp.Vec{}) != 0 || EstimateFrequencyQPSK(dsp.Vec{1}) != 0 {
		t.Fatal("degenerate inputs must give 0")
	}
}

func TestEndToEndWithFrequencyCorrection(t *testing.T) {
	// A burst with a frequency offset too large for UW-phase-only
	// recovery demodulates cleanly after feedforward correction.
	rng := rand.New(rand.NewSource(5))
	f := DefaultBurstFormat(200)
	mod := NewBurstModulator(f, 0.35, 4, 10)
	payload := randBits(rng, f.PayloadBits())
	tx := mod.Modulate(payload)
	ch := dsp.NewChannelWith(6, 18, 4)
	const symbolFreq = 0.008 // cycles/symbol
	ch.FreqOffset = symbolFreq / 4
	rx := ch.Apply(tx)

	// Timing recovery first (rotation-invariant), then frequency.
	mf := dsp.NewMatchedFilter(0.35, 4, 10)
	om := NewOerderMeyr(4)
	filtered := mf.ProcessInto(dsp.NewVec(len(rx)), rx)
	syms, _ := om.RecoverInto(dsp.NewVec(om.MaxSymbols(len(filtered))), filtered)
	est := EstimateFrequencyQPSK(syms)
	if math.Abs(est-symbolFreq) > 0.002 {
		t.Fatalf("frequency estimate %g want %g", est, symbolFreq)
	}
	corrected := dsp.NewVec(len(syms))
	correctFrequencyInto(corrected, syms, est)

	// UW search on the corrected stream.
	uw := f.UWSymbols()
	bestOff, bestMag := -1, 0.0
	var bestCorr complex128
	for off := 0; off+len(uw)+f.PayloadLen <= len(corrected); off++ {
		var acc complex128
		for i := range uw {
			acc += corrected[off+i] * complexConj(uw[i])
		}
		if m := cmagn(acc); m > bestMag {
			bestMag, bestOff, bestCorr = m, off, acc
		}
	}
	if bestOff < 0 {
		t.Fatal("UW not found")
	}
	phase := cphase(bestCorr)
	data := corrected[bestOff+len(uw) : bestOff+len(uw)+f.PayloadLen]
	DerotateInto(data, data, phase)
	got := HardBits(demap(QPSK, data))
	errs := 0
	for i := range payload {
		if got[i] != payload[i] {
			errs++
		}
	}
	if errs > 3 {
		t.Fatalf("%d errors after frequency correction", errs)
	}
}

func complexConj(c complex128) complex128 { return complex(real(c), -imag(c)) }
func cmagn(c complex128) float64          { return math.Hypot(real(c), imag(c)) }
func cphase(c complex128) float64         { return math.Atan2(imag(c), real(c)) }

// The estimator's result bits over a fixed set of bursts (burst-sized
// and odd lengths, offsets across the acquisition range, 4–10 dB): FNV-64a
// over each estimate's Float64bits. A bit-identical change to the
// coarse or fine search leaves it as it is.
func TestFrequencyEstimateDigest(t *testing.T) {
	// 386's math.Hypot is x87 assembly, so cmplx.Abs in the fourth-power
	// normalisation rounds differently there (ROADMAP item 17).
	want := uint64(0x72bcadfd96abf980)
	if runtime.GOARCH == "386" {
		want = 0x996cdcda999d16fd
	}
	rng := rand.New(rand.NewSource(11))
	h := fnv.New64a()
	var b [8]byte
	for i, n := range []int{312, 336, 97, 1000, 64} {
		syms := QPSK.Map(randBits(rng, 2*n))
		ch := dsp.NewChannelWith(int64(i), 4+1.5*float64(i), 1)
		for _, f := range []float64{0, 0.0131, -0.047, 0.1, -0.123} {
			rot := dsp.NewVec(n)
			correctFrequencyInto(rot, syms, -f)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(EstimateFrequencyQPSK(ch.Apply(rot))))
			h.Write(b[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x", got, want)
	}
}

// The fine grid's four-chain passes give each bin what specPower gives
// it alone, bit for bit, on grids of 1–32 bins over sequences of 0–1 000
// samples (every whole pass and every remainder).
func TestFinePowersMatchSpecPower(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 1, 5, 312, 1000} {
		z := dsp.NewVec(n)
		fourthPowerNormalize(z, QPSK.Map(randBits(rng, 2*n)))
		u0, du := rng.Float64()-0.5, 1/(16*float64(n+1))
		for bins := 1; bins <= maxFineBins; bins++ {
			pow := make([]float64, bins)
			finePowers(pow, z, u0, du)
			for k, p := range pow {
				if want := specPower(z, u0+float64(k)*du); math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("%d samples, %d bins: bin %d is %v, specPower gives %v", n, bins, k, p, want)
				}
			}
		}
	}
}
