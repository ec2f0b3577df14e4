package modem

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

// demodCase is one received slot and the demodulator that reads it.
type demodCase struct {
	name string
	d    *BurstDemodulator
	rx   dsp.Vec
}

// fullSync is the synchronization chain the impaired workloads run.
var fullSync = SyncConfig{FreqRecovery: true, PhaseTrack: true, UWThreshold: 0.7}

// demodCases are one engine-size slot (a 200-symbol burst at 4
// samples/symbol) through the legacy chain and through the full sync
// chain.
func demodCases(t testing.TB) []demodCase {
	f := DefaultBurstFormat(200)
	_, clean := syncBurst(t, 1, 12, 0, 0.4, 0.3, 1)
	_, offset := syncBurst(t, 2, 12, 0.05, 0.4, 0.3, 1)
	return []demodCase{
		{"legacy", NewBurstDemodulator(f, 0.35, 4, 10, TimingOerderMeyr), clean},
		{"sync", NewBurstDemodulatorSync(f, 0.35, 4, 10, TimingOerderMeyr, fullSync), offset},
	}
}

// A warm demodulator allocates nothing: its soft bits are its own
// buffer, which callers read before its next burst.
func TestDemodulateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	for _, c := range demodCases(t) {
		if !c.d.Demodulate(c.rx).Found {
			t.Fatalf("%s: burst not found", c.name)
		}
		if a := testing.AllocsPerRun(20, func() { c.d.Demodulate(c.rx) }); a != 0 {
			t.Fatalf("%s: warm Demodulate allocates %v times per burst, want 0", c.name, a)
		}
	}
}

func BenchmarkDemodulate(b *testing.B) {
	for _, c := range demodCases(b) {
		b.Run(c.name, func(b *testing.B) {
			c.d.Demodulate(c.rx) // size the instance's scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.d.Demodulate(c.rx)
			}
		})
	}
}

func BenchmarkOerderMeyr(b *testing.B) {
	_, rx := syncBurst(b, 1, 12, 0, 0.4, 0.3, 1)
	mf := dsp.NewMatchedFilter(0.35, 4, 10)
	filtered := mf.ProcessInto(dsp.NewVec(len(rx)), rx)
	om := NewOerderMeyr(4)
	syms := dsp.NewVec(om.MaxSymbols(len(filtered)))
	om.RecoverInto(syms, filtered) // build the shared rotator table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		om.RecoverInto(syms, filtered)
	}
}

// BenchmarkEstimateFrequencyQPSK: the CFO search on one engine-size
// burst's symbols (312), at 8 dB Es/N0 and 0.03 cycles/symbol.
func BenchmarkEstimateFrequencyQPSK(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rot := dsp.NewVec(312)
	correctFrequencyInto(rot, QPSK.Map(randBits(rng, 2*len(rot))), -0.03)
	syms := dsp.NewChannelWith(2, 8, 1).Apply(rot)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateFrequencyQPSK(syms)
	}
}

// BenchmarkMapInto: one engine-size QPSK burst payload of random bits
// (640 symbols), a different payload each time from a pool too large for
// the branch predictor to learn.
func BenchmarkMapInto(b *testing.B) {
	bits, dst := randBits(rand.New(rand.NewSource(1)), 64*1280), dsp.NewVec(640)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % 64 * 1280
		QPSK.MapInto(dst, bits[k:k+1280])
	}
}
