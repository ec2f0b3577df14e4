package cdma

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/modem"
)

func TestOVSFOrthogonality(t *testing.T) {
	for _, sf := range []int{2, 4, 16, 64} {
		for a := 0; a < sf; a++ {
			for b := 0; b < sf; b++ {
				var acc int
				ca, cb := OVSF(sf, a), OVSF(sf, b)
				for i := 0; i < sf; i++ {
					acc += int(ca[i]) * int(cb[i])
				}
				if a == b && acc != sf {
					t.Fatalf("sf=%d code %d autocorrelation %d", sf, a, acc)
				}
				if a != b && acc != 0 {
					t.Fatalf("sf=%d codes %d,%d not orthogonal: %d", sf, a, b, acc)
				}
			}
		}
	}
}

func TestOVSFChipValues(t *testing.T) {
	for _, c := range OVSF(8, 3) {
		if c != 1 && c != -1 {
			t.Fatalf("chip value %d", c)
		}
	}
	if OVSF(1, 0)[0] != 1 {
		t.Fatal("root code")
	}
}

func TestOVSFPanics(t *testing.T) {
	for _, f := range []func(){
		func() { OVSF(3, 0) },
		func() { OVSF(4, 4) },
		func() { OVSF(4, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGoldSequenceBalanceAndPeriod(t *testing.T) {
	seq := GoldSequence(100)
	if len(seq) != GoldLength {
		t.Fatalf("length %d", len(seq))
	}
	sum := 0
	for _, c := range seq {
		if c != 1 && c != -1 {
			t.Fatalf("chip %d", c)
		}
		sum += int(c)
	}
	// Gold sequences are nearly balanced.
	if sum < -65 || sum > 65 {
		t.Fatalf("imbalance %d", sum)
	}
}

// correlate is the normalized cyclic correlation of two equally long ±1
// sequences at a non-negative lag.
func correlate(a, b []int8, lag int) float64 {
	acc := 0
	for i := range a {
		acc += int(a[i]) * int(b[(i+lag)%len(a)])
	}
	return float64(acc) / float64(len(a))
}

func TestGoldAutocorrelationPeak(t *testing.T) {
	seq := GoldSequence(37)
	if got := correlate(seq, seq, 0); got != 1 {
		t.Fatalf("zero-lag autocorrelation %g", got)
	}
	for _, lag := range []int{1, 13, 200, 511} {
		if v := math.Abs(correlate(seq, seq, lag)); v > 0.2 {
			t.Fatalf("lag %d sidelobe %g", lag, v)
		}
	}
}

func TestGoldCrossCorrelationBounded(t *testing.T) {
	a, b := GoldSequence(3), GoldSequence(700)
	for _, lag := range []int{0, 1, 50, 512} {
		if v := math.Abs(correlate(a, b, lag)); v > 0.2 {
			t.Fatalf("cross-correlation at lag %d: %g", lag, v)
		}
	}
}

func TestGoldDistinctIndices(t *testing.T) {
	a, b := GoldSequence(1), GoldSequence(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different indices must give different sequences")
	}
}

func TestSpreadDespreadRoundTrip(t *testing.T) {
	sp := NewSpreader(16, 5, 7)
	de := NewDespreader(16, 5, 7)
	syms := dsp.Vec{1 + 1i, -1 + 1i, 1 - 1i, -1 - 1i}.Scale(complex(1/math.Sqrt2, 0))
	chips := sp.Spread(syms)
	if len(chips) != 4*16 {
		t.Fatalf("chip count %d", len(chips))
	}
	got := de.Despread(chips)
	for i := range syms {
		if d := got[i] - syms[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-20 {
			t.Fatalf("symbol %d: %v want %v", i, got[i], syms[i])
		}
	}
}

func TestDespreadRejectsOtherChannel(t *testing.T) {
	// A user on a different OVSF code must despread to ~0 (orthogonal).
	spOther := NewSpreader(16, 3, 7)
	de := NewDespreader(16, 5, 7)
	syms := dsp.Vec{1, 1, 1, 1}
	got := de.Despread(spOther.Spread(syms))
	for i, s := range got {
		if real(s)*real(s)+imag(s)*imag(s) > 1e-20 {
			t.Fatalf("leakage at %d: %v", i, s)
		}
	}
}

func TestAcquisitionFindsOffset(t *testing.T) {
	cfg := DefaultConfig()
	mod := NewModulator(cfg)
	rng := rand.New(rand.NewSource(1))
	bits := make([]byte, 64)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	tx := mod.Modulate(bits)
	for _, trueOff := range []int{0, 7, 33, 100} {
		rx := append(dsp.NewVec(trueOff), tx...)
		acq := NewAcquirer(cfg.SF, cfg.CodeIndex, cfg.Scrambling, 4*cfg.SF, 0.5)
		res := acq.Search(rx, 128)
		if !res.Detected || res.Offset != trueOff {
			t.Fatalf("offset %d: detected=%v got %d (metric %g)",
				trueOff, res.Detected, res.Offset, res.Metric)
		}
	}
}

func TestAcquisitionRejectsNoise(t *testing.T) {
	cfg := DefaultConfig()
	acq := NewAcquirer(cfg.SF, cfg.CodeIndex, cfg.Scrambling, 4*cfg.SF, 0.5)
	ch := dsp.NewChannel(2)
	noise := dsp.NewVec(512)
	ch.AWGN(noise, 1)
	res := acq.Search(noise, 128)
	if res.Detected {
		t.Fatalf("false alarm on pure noise: metric %g", res.Metric)
	}
}

func TestAcquisitionUnderNoise(t *testing.T) {
	cfg := DefaultConfig()
	mod := NewModulator(cfg)
	rng := rand.New(rand.NewSource(3))
	bits := make([]byte, 128)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	tx := mod.Modulate(bits)
	rx := append(dsp.NewVec(21), tx...)
	ch := dsp.NewChannel(4)
	ch.AWGN(rx, 0.25) // chip SNR 6 dB
	acq := NewAcquirer(cfg.SF, cfg.CodeIndex, cfg.Scrambling, 4*cfg.SF, 0.5)
	res := acq.Search(rx, 64)
	if !res.Detected || res.Offset != 21 {
		t.Fatalf("noisy acquisition: detected=%v offset=%d metric=%g",
			res.Detected, res.Offset, res.Metric)
	}
}

func TestModemEndToEndNoiseless(t *testing.T) {
	cfg := DefaultConfig()
	mod := NewModulator(cfg)
	dem := NewDemodulator(cfg)
	rng := rand.New(rand.NewSource(6))
	bits := make([]byte, 256)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	rx := mod.Modulate(bits)
	soft := dem.Demodulate(rx, 0)
	if soft == nil {
		t.Fatal("acquisition failed on clean aligned signal")
	}
	for i, b := range bits {
		got := byte(0)
		if soft[i] < 0 {
			got = 1
		}
		if got != b {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestModemEndToEndWithOffsetAndNoise(t *testing.T) {
	cfg := DefaultConfig()
	mod := NewModulator(cfg)
	dem := NewDemodulator(cfg)
	rng := rand.New(rand.NewSource(7))
	bits := make([]byte, 512)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	tx := mod.Modulate(bits)
	rx := append(dsp.NewVec(37), tx...)
	ch := dsp.NewChannel(8)
	ch.AWGN(rx, 0.2)
	soft := dem.Demodulate(rx, 64)
	if soft == nil {
		t.Fatal("acquisition failed")
	}
	errs := 0
	for i, b := range bits {
		got := byte(0)
		if soft[i] < 0 {
			got = 1
		}
		if got != b {
			errs++
		}
	}
	// Despreading gain of SF=16 makes this essentially error-free.
	if errs > 2 {
		t.Fatalf("%d bit errors", errs)
	}
}

func TestModemFailsGracefullyWithoutSignal(t *testing.T) {
	cfg := DefaultConfig()
	dem := NewDemodulator(cfg)
	ch := dsp.NewChannel(9)
	noise := dsp.NewVec(1024)
	ch.AWGN(noise, 1)
	if soft := dem.Demodulate(noise, 64); soft != nil {
		t.Fatal("must return nil without a signal")
	}
}

func TestConfigBitRate(t *testing.T) {
	cfg := DefaultConfig()
	// 2.048 Mcps / 16 * 2 = 256 kbps.
	if got := cfg.BitRate(); got != 256000 {
		t.Fatalf("bit rate %g", got)
	}
}

func TestQPSKMapDemapRoundTrip(t *testing.T) {
	bits := []byte{0, 0, 0, 1, 1, 0, 1, 1}
	syms := modem.QPSK.Map(bits)
	soft := modem.QPSK.DemapInto(make([]float64, 2*len(syms)), syms, 1)
	for i, b := range bits {
		got := byte(0)
		if soft[i] < 0 {
			got = 1
		}
		if got != b {
			t.Fatalf("bit %d", i)
		}
	}
}
