package dsp

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks at the traffic engine's shapes: 95-tap channel
// filters interpolating/decimating by 4 over one carrier of one frame
// (4 slots x 320 symbols x 4 samples + 64 tail = 5184 carrier-rate
// samples, 20736 wideband), and the 41-tap RRC matched filter over one
// burst slot plus the verify slack. ns/op divided by the sample count
// printed beside each name is the bench/ per-ksample figure.
const (
	benchCarrierLen = 4*320*4 + 64
	benchWideLen    = 4 * benchCarrierLen
	benchBurstLen   = 320*4 + 160
)

var benchVecSink Vec

func benchInput(n int) Vec { return unitVec(rand.New(rand.NewSource(1)), n) }

// BenchmarkMatchedFilterBurst is the 41-tap RRC filter streaming over
// one burst; the 95-tap channel filter runs under DDC and DUC.
func BenchmarkMatchedFilterBurst(b *testing.B) {
	mf := NewMatchedFilter(0.35, 4, 10)
	in, dst := benchInput(benchBurstLen), NewVec(benchBurstLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mf.Reset()
		benchVecSink = mf.ProcessInto(dst, in)
	}
}

// BenchmarkDUC: one carrier of one frame up, busy and idle (the idle
// block is skipped: a scan for zeros and a zero fill).
func BenchmarkDUC(b *testing.B) {
	for _, bc := range []struct {
		name string
		in   Vec
	}{{"busy", benchInput(benchCarrierLen)}, {"idle", NewVec(benchCarrierLen)}} {
		b.Run(bc.name, func(b *testing.B) {
			u := NewDUC(0.2, 0.09, 95, 4)
			dst := NewVec(benchWideLen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVecSink = u.ProcessInto(dst, bc.in)
			}
		})
	}
}

// BenchmarkDDC: one carrier of one frame down, streaming and as a
// whole-block window (the two must cost the same), and one slot's window.
func BenchmarkDDC(b *testing.B) {
	in, dst := benchInput(benchWideLen), NewVec(benchCarrierLen)
	d := NewDDC(0.2, 0.09, 95, 4)
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchVecSink = d.ProcessInto(dst, in)
		}
	})
	b.Run("window-all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchVecSink = d.ProcessWindowInto(dst, in, 0, benchCarrierLen)
		}
	})
	b.Run("window-slot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchVecSink = d.ProcessWindowInto(dst, in, 1280, 1280+benchBurstLen)
		}
	})
}

func BenchmarkPulseShaper(b *testing.B) {
	sh := NewPulseShaper(0.35, 4, 10)
	in, dst := benchInput(320), NewVec(320*4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVecSink = sh.ProcessInto(dst, in)
	}
}

// BenchmarkNCOMixInto: one carrier of one frame at the wideband rate,
// one DDC tile, and one uplink burst (four anchor blocks and a tail).
func BenchmarkNCOMixInto(b *testing.B) {
	for _, bc := range []struct {
		name string
		n    int
	}{{"frame", benchWideLen}, {"tile", 1024}, {"burst", 1344}} {
		b.Run(bc.name, func(b *testing.B) {
			o := NewNCO(0.2, 0)
			in, dst := benchInput(bc.n), NewVec(bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchVecSink = o.MixInto(dst, in)
			}
		})
	}
}

func BenchmarkFFT1024(b *testing.B) {
	src, dst := benchInput(1024), NewVec(1024)
	FFTForward(dst, src) // warm the plan cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFTForward(dst, src)
	}
}
