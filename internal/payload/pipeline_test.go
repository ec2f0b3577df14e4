package payload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
)

// newTDMAPayload boots a TDMA payload with the given carrier count and
// codec, sized so each burst carries one codeword of infoLen bits.
func newTDMAPayload(t testing.TB, carriers int, codecName string, infoLen int) (*Payload, fec.Codec) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Carriers = carriers
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec(codecName); err != nil {
		t.Fatal(err)
	}
	codec, err := pl.Codec()
	if err != nil {
		t.Fatal(err)
	}
	if codec.EncodedLen(infoLen) > pl.BurstFormat().PayloadBits() {
		t.Fatalf("codeword %d does not fit the %d-bit burst", codec.EncodedLen(infoLen), pl.BurstFormat().PayloadBits())
	}
	pl.SetBurstCodedBits(codec.EncodedLen(infoLen))
	return pl, codec
}

// makeTDMABursts synthesizes one noisy burst per carrier.
func makeTDMABursts(pl *Payload, codec fec.Codec, infoLen int, seed int64) ([]dsp.Vec, [][]byte) {
	f := pl.BurstFormat()
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(seed))
	carriers := pl.Config().Carriers
	rx := make([]dsp.Vec, carriers)
	infos := make([][]byte, carriers)
	for c := 0; c < carriers; c++ {
		info := make([]byte, infoLen)
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		coded := codec.Encode(info)
		padded := make([]byte, f.PayloadBits())
		copy(padded, coded)
		ch := dsp.NewChannelWith(seed+int64(c), 9+10*math.Log10(2*codec.Rate()), 4)
		rx[c] = ch.Apply(mod.Modulate(padded))
		infos[c] = info
	}
	return rx, infos
}

// TestProcessFrameMatchesSequential is the tentpole equivalence test:
// the concurrent batch path must be bit-identical to the sequential
// per-carrier loop — same decoded bits, same packets on the switch.
func TestProcessFrameMatchesSequential(t *testing.T) {
	const infoLen, seed = 180, 42
	plSeq, codec := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
	plConc, _ := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(plSeq, codec, infoLen, seed)

	// Sequential reference: the pre-pipeline per-carrier loop.
	need := codec.EncodedLen(infoLen)
	seqBits := make([][]byte, len(rx))
	for c := range rx {
		soft, err := plSeq.DemodulateCarrier(c, rx[c])
		if err != nil {
			t.Fatalf("carrier %d: %v", c, err)
		}
		b, err := plSeq.Decode(soft[:need])
		if err != nil {
			t.Fatalf("carrier %d decode: %v", c, err)
		}
		seqBits[c] = b
		plSeq.Switch().Route(1, fec.PackBits(b))
	}

	concBits, err := plConc.ProcessFrame(1, rx)
	if err != nil {
		t.Fatalf("ProcessFrame: %v", err)
	}

	for c := range rx {
		if len(seqBits[c]) != len(concBits[c]) {
			t.Fatalf("carrier %d: %d vs %d decoded bits", c, len(concBits[c]), len(seqBits[c]))
		}
		for i := range seqBits[c] {
			if seqBits[c][i] != concBits[c][i] {
				t.Fatalf("carrier %d bit %d differs between sequential and concurrent paths", c, i)
			}
		}
		if fec.CountBitErrors(infos[c], concBits[c][:infoLen]) != 0 {
			t.Fatalf("carrier %d: decoded bits wrong", c)
		}
	}

	// Same packets, same beam, same order on both switches.
	sp, cp := plSeq.Switch().Drain(1), plConc.Switch().Drain(1)
	if len(sp) != len(cp) {
		t.Fatalf("switch packets: %d vs %d", len(cp), len(sp))
	}
	for i := range sp {
		if string(sp[i]) != string(cp[i]) {
			t.Fatalf("switch packet %d differs", i)
		}
	}
}

// TestProcessFrameRepeatable: repeated concurrent runs over the same
// frame produce identical output (no schedule leakage via pooled
// demodulators or scratch buffers).
func TestProcessFrameRepeatable(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 6, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 7)
	first, err := pl.ProcessFrame(0, rx)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		again, err := pl.ProcessFrame(0, rx)
		if err != nil {
			t.Fatal(err)
		}
		for c := range first {
			if string(first[c]) != string(again[c]) {
				t.Fatalf("run %d carrier %d differs", run, c)
			}
		}
	}
	pl.Switch().Drain(0)
}

// TestProcessFramePartialFailure: a carrier whose burst is missing
// fails alone; the rest of the frame is decoded and routed.
func TestProcessFramePartialFailure(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 4, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(pl, codec, infoLen, 3)
	rx[2] = dsp.NewVec(len(rx[2])) // wipe carrier 2: no burst to find

	bits, err := pl.ProcessFrame(3, rx)
	if err == nil {
		t.Fatal("missing burst must surface as an error")
	}
	if bits[2] != nil {
		t.Fatal("carrier 2 must not decode")
	}
	for _, c := range []int{0, 1, 3} {
		if bits[c] == nil || fec.CountBitErrors(infos[c], bits[c][:infoLen]) != 0 {
			t.Fatalf("carrier %d must survive a neighbour's failure", c)
		}
	}
	if got := len(pl.Switch().Drain(3)); got != 3 {
		t.Fatalf("switch received %d packets, want 3", got)
	}
}

// TestProcessFrameServiceGating: frame processing honours device health
// exactly like the sequential path.
func TestProcessFrameServiceGating(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 5)

	d, _ := pl.Chipset().Device("demod-fpga")
	d.PowerOff()
	bits, err := pl.ProcessFrame(0, rx)
	if err == nil {
		t.Fatal("frame must fail with the demodulator down")
	}
	for c := range bits {
		if bits[c] != nil {
			t.Fatalf("carrier %d decoded through a powered-off demodulator", c)
		}
	}
	d.PowerOn()
	if _, err := pl.ProcessFrame(0, rx); err != nil {
		t.Fatalf("service must recover: %v", err)
	}
	pl.Switch().Drain(0)
}

// TestProcessFrameInputValidation covers the frame-shape errors.
func TestProcessFrameInputValidation(t *testing.T) {
	pl, _ := newTDMAPayload(t, 2, "uncoded", 64)
	if _, err := pl.ProcessFrame(0, nil); err == nil {
		t.Fatal("empty frame must error")
	}
	if _, err := pl.ProcessFrame(0, make([]dsp.Vec, 3)); err == nil {
		t.Fatal("more blocks than carriers must error")
	}
}

// TestProcessFrameShortBurstRejected: a burst whose soft bits come up
// short of the configured codeword must fail that carrier cleanly, not
// feed a truncated codeword to the decoder.
func TestProcessFrameShortBurstRejected(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 8)
	// Demand more codeword bits than the burst payload can carry.
	pl.SetBurstCodedBits(pl.BurstFormat().PayloadBits() + 8)
	bits, err := pl.ProcessFrame(0, rx)
	if err == nil {
		t.Fatal("short soft bits must surface as an error")
	}
	for c := range bits {
		if bits[c] != nil {
			t.Fatalf("carrier %d decoded a truncated codeword", c)
		}
	}
}

// TestReceiveFrameConcurrentMatchesSequential: the (carrier, slot) grid
// path fans out across workers, including several bursts per carrier,
// and must agree with a sequential loop over the assignments.
func TestReceiveFrameConcurrentMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Carriers = 2
	cfg.TDMAPayloadSymbols = 64
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec("uncoded"); err != nil {
		t.Fatal(err)
	}
	f := pl.BurstFormat()
	fcCfg := modem.FrameConfig{Carriers: 2, Slots: 3, SlotSymbols: f.TotalSymbols() + 30}
	fc := modem.NewFrameComposer(fcCfg, 4)
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	rng := rand.New(rand.NewSource(9))
	var assignments []modem.SlotAssignment
	for carrier := 0; carrier < 2; carrier++ {
		for slot := 0; slot < 3; slot++ {
			bits := make([]byte, f.PayloadBits())
			for i := range bits {
				bits[i] = byte(rng.Intn(2))
			}
			a := modem.SlotAssignment{Carrier: carrier, Slot: slot}
			fc.PlaceBurst(a, mod.Modulate(bits))
			assignments = append(assignments, a)
		}
	}

	got := pl.ReceiveFrameAndRouteQoS(fc, assignments, make([]RouteMeta, len(assignments)))

	for i, a := range assignments {
		want, err := pl.DemodulateCarrier(a.Carrier, fc.SlotWaveform(a))
		if err != nil {
			t.Fatalf("assignment %d: %v", i, err)
		}
		if !got[i].Found || len(got[i].Soft) != len(want) {
			t.Fatalf("assignment %d: found=%v soft %d vs %d", i, got[i].Found, len(got[i].Soft), len(want))
		}
		for j := range want {
			if got[i].Soft[j] != want[j] {
				t.Fatalf("assignment %d soft bit %d differs from sequential", i, j)
			}
		}
	}
}
