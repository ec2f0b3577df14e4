package experiments

import (
	"math"
	"math/rand"

	"repro/internal/cdma"
	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
)

// CDMABERPoint measures the CDMA return-link bit error rate at one Eb/N0
// (dB) over roughly nBits information bits, running the full chain:
// QPSK spreading at chip rate, AWGN, serial-search acquisition,
// despreading, demapping.
func CDMABERPoint(ebn0dB float64, nBits int, seed int64) float64 {
	cfg := cdma.DefaultConfig()
	rng := rand.New(rand.NewSource(seed))
	ch := dsp.NewChannel(seed + 1)

	// Per-chip complex noise variance for unit-power chips:
	// Eb = SF/(2 r) chip energies (QPSK, uncoded r=1), N0 = Eb / (Eb/N0).
	ebn0 := math.Pow(10, ebn0dB/10)
	n0 := float64(cfg.SF) / (2 * ebn0)

	errs, total := 0, 0
	block := 512 // bits per block
	for total < nBits {
		bits := randBits(rng, block)
		mod := cdma.NewModulator(cfg)
		rx := mod.Modulate(bits)
		ch.AWGN(rx, n0)
		dem := cdma.NewDemodulator(cfg)
		errs += softErrors(bits, dem.Demodulate(rx, 0)) // nil on an acquisition miss
		total += block
	}
	return float64(errs) / float64(total)
}

// softErrors counts the bits whose soft decision (negative ⇒ 1) is not
// the bit sent. A burst that was not received (soft nil) counts half its
// bits in error.
func softErrors(sent []byte, soft []float64) int {
	if soft == nil {
		return len(sent) / 2
	}
	return fec.CountBitErrors(sent, modem.HardBits(soft[:len(sent)]))
}

// TDMABERPoint measures the TDMA burst-mode BER at one Eb/N0 (dB): QPSK
// bursts with preamble and unique word, RRC shaping, AWGN, Oerder-Meyr
// timing, UW sync and data-aided phase correction.
func TDMABERPoint(ebn0dB float64, nBits int, seed int64) float64 {
	f := modem.DefaultBurstFormat(256)
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	dem := modem.NewBurstDemodulator(f, 0.35, 4, 10, modem.TimingOerderMeyr)
	rng := rand.New(rand.NewSource(seed))

	errs, total := 0, 0
	for total < nBits {
		payload := randBits(rng, f.PayloadBits())
		tx := mod.Modulate(payload)
		ch := dsp.NewChannel(seed + int64(total) + 7)
		ch.EsN0dB = ebn0dB + 10*math.Log10(2) // QPSK, uncoded
		ch.SPS = 4
		ch.PhaseOffset = rng.Float64() - 0.5
		ch.TimingOffset = rng.Float64() * 0.9
		errs += softErrors(payload, dem.Demodulate(ch.Apply(tx)).Soft)
		total += f.PayloadBits()
	}
	return float64(errs) / float64(total)
}

// E3Result carries the migration study outputs.
type E3Result struct {
	Table *Table
	// MaxDegradationdB is the worst implementation loss vs theory across
	// the measured points (both waveforms).
	MaxDegradationdB float64
	// ThroughputGain is TDMA bit rate / CDMA bit rate.
	ThroughputGain float64
}

// E3Migration reproduces Fig 3's waveform swap quantitatively: BER vs
// Eb/N0 for the CDMA mode and the TDMA mode it is replaced by, plus the
// rate comparison the paper motivates the migration with (144/384 kbps ->
// 2 Mbps goal).
func E3Migration(ebn0s []float64, bitsPerPoint int, seed int64) *E3Result {
	res := &E3Result{}
	t := &Table{
		Title:   "E3 / Fig 3: CDMA -> TDMA waveform migration",
		Columns: []string{"CDMA BER", "TDMA BER", "theory (QPSK)"},
	}
	worst := 0.0
	for _, e := range ebn0s {
		cber := CDMABERPoint(e, bitsPerPoint, seed)
		tber := TDMABERPoint(e, bitsPerPoint, seed+1000)
		theory := qfunc(math.Sqrt(2 * math.Pow(10, e/10)))
		t.Rows = append(t.Rows, Row{f("Eb/N0 = %.1f dB", e),
			[]string{f("%.2e", cber), f("%.2e", tber), f("%.2e", theory)}})
		for _, ber := range []float64{cber, tber} {
			if ber > 0 && theory > 0 {
				// Implementation loss in dB at this operating point,
				// approximated via the BER ratio on the Q curve slope.
				worst = max(worst, 10*math.Log10(invQ2(ber)/invQ2(theory)))
			}
		}
	}
	res.MaxDegradationdB = worst

	cdmaRate := cdma.DefaultConfig().BitRate()
	res.ThroughputGain = float64(modem.BitRateTDMA) / cdmaRate
	t.Rows = append(t.Rows,
		Row{"CDMA data rate (paper: <=384 kbps)", []string{f("%.0f kbps", cdmaRate/1000), "", ""}},
		Row{"TDMA data rate (paper goal: 2 Mbps)", []string{f("%.0f kbps", float64(modem.BitRateTDMA)/1000), "", ""}},
		Row{"throughput gain", []string{f("%.1fx", res.ThroughputGain), "", ""}},
	)
	t.Notes = append(t.Notes,
		"chip rate 2.048 Mcps and TDMA sample rate are compatible ('working frequencies of both modes are then fully compatible')",
		"CDMA points below ~6 dB are acquisition-limited (chip SNR = Eb/N0 - 9 dB at SF 16; serial search misses count as erasures)")
	res.Table = t
	return res
}

// invQ2 maps a BER back to the equivalent 2*Eb/N0 via the inverse of
// Q(sqrt(x)) (bisection; used only for degradation estimates).
func invQ2(ber float64) float64 {
	lo, hi := 0.0, 100.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if qfunc(math.Sqrt(mid)) > ber {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// E8Result carries the decoder study outputs.
type E8Result struct {
	Table *Table
	// BERs[codec][point] for assertions.
	BERs map[string][]float64
}

// E8Decoders reproduces the §2.3 decoder-reconfiguration case study:
// BER vs Eb/N0 for the three UMTS coding options sharing one hardware
// slot, plus their complexity.
func E8Decoders(ebn0s []float64, bitsPerPoint int, seed int64) *E8Result {
	codecs := []fec.Codec{fec.Uncoded{}, fec.UMTSConvHalf(), fec.UMTSConvThird(), fec.NewTurbo(6)}
	res := &E8Result{BERs: make(map[string][]float64)}
	t := &Table{Title: "E8 / sec 2.3: decoder reconfiguration (BER vs Eb/N0)"}
	for _, e := range ebn0s {
		t.Columns = append(t.Columns, f("%.1f dB", e))
	}
	rng := rand.New(rand.NewSource(seed))
	for _, c := range codecs {
		var vals []string
		for _, e := range ebn0s {
			ber := codecBER(rng, c, e, bitsPerPoint)
			res.BERs[c.Name()] = append(res.BERs[c.Name()], ber)
			vals = append(vals, f("%.2e", ber))
		}
		t.Rows = append(t.Rows, Row{c.Name(), vals})
	}
	t.Notes = append(t.Notes,
		"the same FPGA slot hosts whichever decoder the service mix requires (uncoded / convolutional / turbo, 3G TS 25.212)")
	res.Table = t
	return res
}

// codecBER measures BPSK-channel BER for a codec at Eb/N0 (dB).
func codecBER(rng *rand.Rand, c fec.Codec, ebn0dB float64, nBits int) float64 {
	const block = 320
	esn0 := math.Pow(10, ebn0dB/10) * c.Rate()
	sigma2 := 1 / (2 * esn0)
	sigma := math.Sqrt(sigma2)
	errs, total := 0, 0
	for total < nBits {
		info := randBits(rng, block)
		coded := c.Encode(info)
		llr := make([]float64, len(coded))
		for i, b := range coded {
			x := 1.0
			if b == 1 {
				x = -1
			}
			llr[i] = 2 * (x + rng.NormFloat64()*sigma) / sigma2
		}
		dec := c.Decode(llr)
		errs += fec.CountBitErrors(info, dec[:block])
		total += block
	}
	return float64(errs) / float64(total)
}
