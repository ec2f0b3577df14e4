package experiments

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/payload"
)

// E10 measures the concurrent per-carrier receive pipeline: the paper's
// payload runs DEMUX/DEMOD/DECOD as parallel per-carrier FPGA chains,
// and this experiment quantifies the software analogue — frame latency
// of Payload.ProcessFrame versus the sequential per-carrier loop, for
// growing carrier counts. Correctness is asserted on every frame: both
// paths must decode the transmitted bits exactly.

// tdmaFrame is one synthesized MF-TDMA uplink frame: per-carrier burst
// waveforms plus the info bits each carries.
type tdmaFrame struct {
	rx    []dsp.Vec
	infos [][]byte
}

// frameInfoBits returns the largest info size whose codeword fits the
// burst payload.
func frameInfoBits(c fec.Codec, budget int) int {
	k := 16
	for c.EncodedLen(k+8) <= budget {
		k += 8
	}
	return k
}

// newFramePayload boots a TDMA payload with the given carrier count and
// convolutional coding, configured for frame processing.
func newFramePayload(carriers int) (*payload.Payload, fec.Codec, int) {
	cfg := payload.DefaultConfig()
	cfg.Carriers = carriers
	pl, err := payload.New(cfg)
	if err != nil {
		panic(err)
	}
	if err := pl.SetWaveform(payload.ModeTDMA); err != nil {
		panic(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		panic(err)
	}
	codec, err := pl.Codec()
	if err != nil {
		panic(err)
	}
	k := frameInfoBits(codec, pl.BurstFormat().PayloadBits())
	pl.SetBurstCodedBits(codec.EncodedLen(k))
	return pl, codec, k
}

// makeTDMAFrames synthesizes frames of per-carrier bursts at a benign
// Eb/N0 so decoded output must match the transmitted bits exactly.
func makeTDMAFrames(pl *payload.Payload, codec fec.Codec, k, carriers, frames int, seed int64) []tdmaFrame {
	f := pl.BurstFormat()
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(seed))
	out := make([]tdmaFrame, frames)
	for fi := range out {
		fr := tdmaFrame{rx: make([]dsp.Vec, carriers), infos: make([][]byte, carriers)}
		for c := 0; c < carriers; c++ {
			info := randBits(rng, k)
			coded := codec.Encode(info)
			padded := make([]byte, f.PayloadBits())
			copy(padded, coded)
			ch := dsp.NewChannelWith(seed+int64(fi*carriers+c), 10+10*math.Log10(2*codec.Rate()), 4)
			fr.rx[c] = ch.Apply(mod.Modulate(padded))
			fr.infos[c] = info
		}
		out[fi] = fr
	}
	return out
}

// sequentialFrame is the reference path: the pre-pipeline per-carrier
// loop (demodulate, trim, decode, route) run strictly in order.
func sequentialFrame(pl *payload.Payload, beam int, rx []dsp.Vec, codedBits int) ([][]byte, error) {
	bits := make([][]byte, len(rx))
	var firstErr error
	for c := range rx {
		soft, err := pl.DemodulateCarrier(c, rx[c])
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if codedBits > 0 && len(soft) > codedBits {
			soft = soft[:codedBits]
		}
		b, err := pl.Decode(soft)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		bits[c] = b
		pl.Switch().Route(beam, fec.PackBits(b))
	}
	return bits, firstErr
}

// E10Result carries the pipeline study outputs.
type E10Result struct {
	Table *Table
	// Speedup[carriers] is sequential/concurrent frame latency.
	Speedup map[int]float64
}

// E10Pipeline runs framesPerPoint frames per carrier count through both
// paths, asserting bit-exact agreement, and reports per-frame latency
// and speedup. Wall-clock numbers depend on GOMAXPROCS; correctness
// does not.
func E10Pipeline(carrierCounts []int, framesPerPoint int, seed int64) *E10Result {
	res := &E10Result{Speedup: make(map[int]float64)}
	t := &Table{
		Title: f("E10: concurrent per-carrier pipeline (GOMAXPROCS=%d)", runtime.GOMAXPROCS(0)),
		Columns: []string{"sequential ms/frame", "concurrent ms/frame",
			"speedup", "bit-exact"},
	}
	for _, nc := range carrierCounts {
		pl, codec, k := newFramePayload(nc)
		frames := makeTDMAFrames(pl, codec, k, nc, framesPerPoint, seed)
		codedBits := codec.EncodedLen(k)

		exact := true
		start := time.Now()
		seqBits := make([][][]byte, len(frames))
		for i, fr := range frames {
			b, err := sequentialFrame(pl, 0, fr.rx, codedBits)
			if err != nil {
				panic(err)
			}
			seqBits[i] = b
		}
		seqT := time.Since(start)
		pl.Switch().Drain(0)

		start = time.Now()
		for i, fr := range frames {
			b, err := pl.ProcessFrame(0, fr.rx)
			if err != nil {
				panic(err)
			}
			for c := range b {
				if !bytes.Equal(b[c], seqBits[i][c]) ||
					fec.CountBitErrors(fr.infos[c], b[c][:len(fr.infos[c])]) != 0 {
					exact = false
				}
			}
		}
		concT := time.Since(start)
		pl.Switch().Drain(0)

		seqMS := seqT.Seconds() * 1000 / float64(len(frames))
		concMS := concT.Seconds() * 1000 / float64(len(frames))
		speedup := seqT.Seconds() / concT.Seconds()
		res.Speedup[nc] = speedup
		t.Rows = append(t.Rows, Row{f("%d carriers", nc), []string{
			f("%.2f", seqMS), f("%.2f", concMS), f("%.2fx", speedup), f("%v", exact)}})
	}
	t.Notes = append(t.Notes,
		"both paths share the DEMOD/DECOD stages; the concurrent one fans carriers out over the pipeline worker pool",
		"speedup tracks min(GOMAXPROCS, carriers); on one core the pipeline must still be bit-exact")
	res.Table = t
	return res
}
