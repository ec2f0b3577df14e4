package payload

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

// switchRouted is the number of packets the payload's switch has
// accepted since boot, over all classes.
func switchRouted(pl *Payload) int {
	n := 0
	for _, cc := range pl.Switch().ClassCounters() {
		n += cc.Routed
	}
	return n
}

// atProcs sets GOMAXPROCS for the rest of the test.
func atProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// drain removes and returns every packet queued for a beam in arrival
// order across classes.
func drain(pl *Payload, beam int) [][]byte {
	var out [][]byte
	sw := pl.Switch()
	sw.Schedule(switchfab.FIFO{}, beam, sw.QueueDepth(beam), func(p switchfab.Packet) bool {
		out = append(out, p.Bits)
		return true
	})
	return out
}

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

// receiveCarriers runs one burst per carrier — rx[c] in slot 0 of
// carrier c — through the frame receive path, every cell routed to
// beam with all its decoded bits.
func receiveCarriers(pl *Payload, beam int, rx []dsp.Vec) []BurstReceipt {
	return pl.ReceiveFrameAndRouteQoS(carrierFrame(beam, rx))
}

// carrierFrame composes receiveCarriers's frame.
func carrierFrame(beam int, rx []dsp.Vec) (*modem.FrameComposer, []modem.SlotAssignment, []RouteMeta) {
	n := 0
	for _, v := range rx {
		n = max(n, len(v))
	}
	fc := modem.NewFrameComposer(modem.FrameConfig{Carriers: len(rx), Slots: 1, SlotSymbols: (n + 3) / 4}, 4)
	asgs := make([]modem.SlotAssignment, len(rx))
	metas := make([]RouteMeta, len(rx))
	for c, v := range rx {
		asgs[c] = modem.SlotAssignment{Carrier: c}
		metas[c] = RouteMeta{Beam: beam}
		fc.PlaceBurst(asgs[c], v)
	}
	return fc, asgs, metas
}

// A warm frame receive allocates nothing: the receipts, the decode
// buffers, the worker body and the fabric's slots are the payload's own.
func TestReceiveFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	atProcs(t, 1)
	for _, tc := range []struct {
		codec   string
		infoLen int
	}{{"conv-r1/2-k9", 180}, {"turbo-r1/3", 120}} {
		pl, codec := newTDMAPayload(t, 4, tc.codec, tc.infoLen)
		rx, infos := makeTDMABursts(pl, codec, tc.infoLen, 11)
		fc, asgs, metas := carrierFrame(1, rx)
		frame := func() {
			for c, r := range pl.ReceiveFrameAndRouteQoS(fc, asgs, metas) {
				if r.Err != nil || fec.CountBitErrors(infos[c], r.Bits[:tc.infoLen]) != 0 {
					t.Fatalf("%s carrier %d: %v", tc.codec, c, r.Err)
				}
			}
			pl.Switch().Schedule(switchfab.FIFO{}, 1, len(asgs), func(switchfab.Packet) bool { return true })
		}
		for i := 0; i < 3; i++ {
			frame() // warm the pools, the buffers and the fabric's storage
		}
		if a := testing.AllocsPerRun(20, frame); a != 0 {
			t.Fatalf("%s: warm frame receive allocates %v times, want 0", tc.codec, a)
		}
	}
}

// TestReceiveFrameMatchesSequential is the equivalence test of the one
// receive path: the concurrent frame receive must be bit-identical to
// the sequential single-burst DemodulateCarrier/decode loop — same
// decoded bits, same packets on the switch in the same order — at every
// worker-pool width (GOMAXPROCS sizes the pool).
func TestReceiveFrameMatchesSequential(t *testing.T) {
	const infoLen, seed = 180, 42
	plSeq, codec := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(plSeq, codec, infoLen, seed)

	need := codec.EncodedLen(infoLen)
	seqBits := make([][]byte, len(rx))
	for c := range rx {
		soft, err := plSeq.DemodulateCarrier(c, rx[c])
		if err != nil {
			t.Fatalf("carrier %d: %v", c, err)
		}
		b, err := plSeq.decode(nil, soft[:need])
		if err != nil {
			t.Fatalf("carrier %d decode: %v", c, err)
		}
		seqBits[c] = b
		plSeq.Switch().RoutePacket(1, switchfab.Packet{Bits: b})
	}
	sp := drain(plSeq, 1)

	for _, procs := range []int{1, 2, 4, 8} {
		atProcs(t, procs)
		plConc, _ := newTDMAPayload(t, 8, "conv-r1/2-k9", infoLen)
		for c, r := range receiveCarriers(plConc, 1, rx) {
			if r.Err != nil {
				t.Fatalf("GOMAXPROCS %d carrier %d: %v", procs, c, r.Err)
			}
			if string(seqBits[c]) != string(r.Bits) {
				t.Fatalf("GOMAXPROCS %d carrier %d: decoded bits differ between sequential and concurrent paths", procs, c)
			}
			if fec.CountBitErrors(infos[c], r.Bits[:infoLen]) != 0 {
				t.Fatalf("GOMAXPROCS %d carrier %d: decoded bits wrong", procs, c)
			}
		}

		// Same packets, same beam, same order on both switches.
		cp := drain(plConc, 1)
		if len(sp) != len(cp) {
			t.Fatalf("GOMAXPROCS %d: switch packets %d vs %d", procs, len(cp), len(sp))
		}
		for i := range sp {
			if string(sp[i]) != string(cp[i]) {
				t.Fatalf("GOMAXPROCS %d: switch packet %d differs", procs, i)
			}
		}
	}
}

// TestReceiveFrameRepeatable: repeated concurrent runs over the same
// frame produce identical output (no schedule leakage via pooled
// demodulators or scratch buffers).
func TestReceiveFrameRepeatable(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 6, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 7)
	first := slices.Clone(receiveCarriers(pl, 0, rx)) // the receipts live until the next call
	for i := range first {
		first[i].Bits = slices.Clone(first[i].Bits)
	}
	for run := 0; run < 5; run++ {
		for c, r := range receiveCarriers(pl, 0, rx) {
			if first[c].Err != nil || r.Err != nil {
				t.Fatalf("run %d carrier %d: %v / %v", run, c, first[c].Err, r.Err)
			}
			if string(first[c].Bits) != string(r.Bits) {
				t.Fatalf("run %d carrier %d differs", run, c)
			}
		}
	}
}

// TestReceiveFramePartialFailure: a cell whose burst is missing fails
// alone; the rest of the frame is decoded and routed.
func TestReceiveFramePartialFailure(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 4, "conv-r1/2-k9", infoLen)
	rx, infos := makeTDMABursts(pl, codec, infoLen, 3)
	rx[2] = dsp.NewVec(len(rx[2])) // wipe carrier 2: no burst to find

	receipts := receiveCarriers(pl, 3, rx)
	if receipts[2].Err == nil || receipts[2].Bits != nil {
		t.Fatal("missing burst must surface as an error and decode nothing")
	}
	for _, c := range []int{0, 1, 3} {
		if receipts[c].Err != nil || fec.CountBitErrors(infos[c], receipts[c].Bits[:infoLen]) != 0 {
			t.Fatalf("carrier %d must survive a neighbour's failure", c)
		}
	}
	if got := len(drain(pl, 3)); got != 3 {
		t.Fatalf("switch received %d packets, want 3", got)
	}
}

// TestReceiveFrameServiceGating: frame reception honours device health
// exactly like the single-burst path, and recovers with the device.
func TestReceiveFrameServiceGating(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 5)

	d, _ := pl.Chipset().Device("demod-fpga")
	d.PowerOff()
	for c, r := range receiveCarriers(pl, 0, rx) {
		if !errors.Is(r.Err, ErrServiceDown) || r.Bits != nil {
			t.Fatalf("carrier %d through a powered-off demodulator: bits %v, err %v", c, r.Bits != nil, r.Err)
		}
	}
	d.PowerOn()
	for c, r := range receiveCarriers(pl, 0, rx) {
		if r.Err != nil {
			t.Fatalf("service must recover: carrier %d: %v", c, r.Err)
		}
	}
}

// TestReceiveFrameShortBurstRejected: a burst whose soft bits come up
// short of the configured codeword must fail that cell cleanly, not
// feed a truncated codeword to the decoder.
func TestReceiveFrameShortBurstRejected(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 2, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 8)
	// Demand more codeword bits than the burst payload can carry.
	pl.SetBurstCodedBits(pl.BurstFormat().PayloadBits() + 8)
	for c, r := range receiveCarriers(pl, 0, rx) {
		if r.Err == nil || r.Bits != nil {
			t.Fatalf("carrier %d decoded a truncated codeword", c)
		}
	}
	if switchRouted(pl) != 0 {
		t.Fatal("a short burst reached the switch")
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
		if !got[i].Found || !bytes.Equal(got[i].Bits, modem.HardBits(want)) {
			t.Fatalf("assignment %d: found=%v, decoded bits differ from sequential", i, got[i].Found)
		}
	}
}
