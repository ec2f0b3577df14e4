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
	"repro/internal/traffic"
)

// E10 measures the concurrent per-carrier receive pipeline: the paper's
// payload runs DEMUX/DEMOD/DECOD as parallel per-carrier FPGA chains,
// and this experiment quantifies the software analogue — frame latency
// of Payload.ReceiveFrameAndRouteQoS, the one receive path, on one
// worker (GOMAXPROCS 1, which sizes the pool) versus all of them, for
// growing carrier counts. Correctness is asserted on every frame: both
// widths must decode the transmitted bits exactly.

// tdmaFrame is one synthesized MF-TDMA uplink frame — one burst per
// carrier, in slot 0 — plus the info bits each burst carries.
type tdmaFrame struct {
	fc    *modem.FrameComposer
	asgs  []modem.SlotAssignment
	metas []payload.RouteMeta // every cell to beam 0
	infos [][]byte
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
	k := traffic.InfoBitsFor(codec, pl.BurstFormat().PayloadBits())
	pl.SetBurstCodedBits(codec.EncodedLen(k))
	return pl, codec, k
}

// makeTDMAFrames synthesizes frames of per-carrier bursts at a benign
// Eb/N0 so decoded output must match the transmitted bits exactly.
func makeTDMAFrames(pl *payload.Payload, codec fec.Codec, k, carriers, frames int, seed int64) []tdmaFrame {
	f := pl.BurstFormat()
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	cfg := modem.FrameConfig{Carriers: carriers, Slots: 1, SlotSymbols: mod.WaveformLen()/4 + 16}
	rng := rand.New(rand.NewSource(seed))
	out := make([]tdmaFrame, frames)
	for fi := range out {
		fr := tdmaFrame{
			fc:    modem.NewFrameComposer(cfg, 4),
			asgs:  make([]modem.SlotAssignment, carriers),
			metas: make([]payload.RouteMeta, carriers),
			infos: make([][]byte, carriers),
		}
		for c := 0; c < carriers; c++ {
			info := randBits(rng, k)
			coded := codec.Encode(info)
			padded := make([]byte, f.PayloadBits())
			copy(padded, coded)
			ch := dsp.NewChannelWith(seed+int64(fi*carriers+c), 10+10*math.Log10(2*codec.Rate()), 4)
			fr.asgs[c] = modem.SlotAssignment{Carrier: c}
			fr.fc.PlaceBurst(fr.asgs[c], ch.Apply(mod.Modulate(padded)))
			fr.infos[c] = info
		}
		out[fi] = fr
	}
	return out
}

// receiveFrames runs the frame set through the payload's receive path
// at the given worker-pool width and returns every cell's decoded bits
// and the wall time. It panics on a lost cell: the channel is benign.
func receiveFrames(pl *payload.Payload, frames []tdmaFrame, workers int) ([][][]byte, time.Duration) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	bits := make([][][]byte, len(frames))
	start := time.Now()
	for i, fr := range frames {
		receipts := pl.ReceiveFrameAndRouteQoS(fr.fc, fr.asgs, fr.metas)
		bits[i] = make([][]byte, len(receipts))
		for c, r := range receipts {
			if r.Err != nil {
				panic(r.Err)
			}
			bits[i][c] = r.Bits
		}
	}
	dt := time.Since(start)
	pl.Switch().Drain(0)
	return bits, dt
}

// framesExact reports whether got matches the reference decode cell for
// cell and carries the transmitted info bits.
func framesExact(frames []tdmaFrame, got, ref [][][]byte) bool {
	for i, fr := range frames {
		for c, info := range fr.infos {
			if !bytes.Equal(got[i][c], ref[i][c]) || fec.CountBitErrors(info, got[i][c][:len(info)]) != 0 {
				return false
			}
		}
	}
	return true
}

// E10Result carries the pipeline study outputs.
type E10Result struct {
	Table *Table
	// Speedup[carriers] is sequential/concurrent frame latency.
	Speedup map[int]float64
}

// E10Pipeline runs framesPerPoint frames per carrier count through the
// receive path on one worker and on GOMAXPROCS of them, asserting
// bit-exact agreement, and reports per-frame latency and speedup.
// Wall-clock numbers depend on GOMAXPROCS; correctness does not.
func E10Pipeline(carrierCounts []int, framesPerPoint int, seed int64) *E10Result {
	res := &E10Result{Speedup: make(map[int]float64)}
	procs := runtime.GOMAXPROCS(0)
	t := &Table{
		Title: f("E10: concurrent per-carrier pipeline (GOMAXPROCS=%d)", procs),
		Columns: []string{"sequential ms/frame", "concurrent ms/frame",
			"speedup", "bit-exact"},
	}
	for _, nc := range carrierCounts {
		pl, codec, k := newFramePayload(nc)
		frames := makeTDMAFrames(pl, codec, k, nc, framesPerPoint, seed)
		seqBits, seqT := receiveFrames(pl, frames, 1)
		concBits, concT := receiveFrames(pl, frames, procs)

		seqMS := seqT.Seconds() * 1000 / float64(len(frames))
		concMS := concT.Seconds() * 1000 / float64(len(frames))
		speedup := seqT.Seconds() / concT.Seconds()
		res.Speedup[nc] = speedup
		t.Rows = append(t.Rows, Row{f("%d carriers", nc), []string{
			f("%.2f", seqMS), f("%.2f", concMS), f("%.2fx", speedup), f("%v", framesExact(frames, concBits, seqBits))}})
	}
	t.Notes = append(t.Notes,
		"both paths share the DEMOD/DECOD stages; the concurrent one fans carriers out over the pipeline worker pool",
		"speedup tracks min(GOMAXPROCS, carriers); on one core the pipeline must still be bit-exact")
	res.Table = t
	return res
}
