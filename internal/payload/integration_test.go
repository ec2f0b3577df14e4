package payload

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

// TestFig2WidebandRegenerativeLoop runs the Fig 2 chain from the DEMUX
// on: three user terminals transmit TDMA bursts on different carriers;
// the stacked wideband uplink is demultiplexed; each carrier is
// demodulated and decoded; packets are switched; the Tx section
// re-encodes and transmits a downlink frame which a ground terminal
// demodulates. Bits must survive the full regenerative hop.
func TestFig2WidebandRegenerativeLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Carriers = 3
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := pl.SetCodec("conv-r1/2-k9"); err != nil {
		t.Fatal(err)
	}
	codec, _ := pl.Codec()

	plan := frontend.CarrierPlan{Carriers: 3, Spacing: 0.2, Decim: 4}
	uplinkMux := frontend.NewMux(plan, 95)

	// Terminals: one burst per carrier at 4 samples/symbol (= Decim, so
	// the demux output lands at the demodulator's expected rate).
	rng := rand.New(rand.NewSource(42))
	f := pl.BurstFormat()
	infoLen := 180 // (180+8)*2 = 376 <= 400 payload bits
	infos := make([][]byte, plan.Carriers)
	carriers := make([]dsp.Vec, plan.Carriers)
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	maxLen := 0
	for c := range carriers {
		infos[c] = make([]byte, infoLen)
		for i := range infos[c] {
			infos[c][i] = byte(rng.Intn(2))
		}
		coded := codec.Encode(infos[c])
		burst := make([]byte, f.PayloadBits())
		copy(burst, coded)
		carriers[c] = mod.Modulate(burst)
		if len(carriers[c]) > maxLen {
			maxLen = len(carriers[c])
		}
	}
	// Pad with a tail margin so the demux filter delay cannot push the
	// burst end past the block boundary.
	maxLen += 64
	for c := range carriers {
		carriers[c] = append(carriers[c], dsp.NewVec(maxLen-len(carriers[c]))...)
	}

	// Stack to wideband (at 4x the carrier rate) and add mild noise.
	wide := uplinkMux.ProcessInto(dsp.NewVec(uplinkMux.OutLen(maxLen)), carriers)
	ch := dsp.NewChannel(7)
	ch.AWGN(wide, 1e-4)

	// Payload receive: DEMUX then per-carrier demod/decode/switch.
	split := frontend.NewDemux(plan, 95).Process(wide)
	for c := 0; c < plan.Carriers; c++ {
		soft, err := pl.DemodulateCarrier(c, split[c])
		if err != nil {
			t.Fatalf("carrier %d: %v", c, err)
		}
		dec, err := pl.decode(nil, soft[:codec.EncodedLen(infoLen)])
		if err != nil {
			t.Fatalf("carrier %d decode: %v", c, err)
		}
		if errs := fec.CountBitErrors(infos[c], dec[:infoLen]); errs != 0 {
			t.Fatalf("carrier %d: %d bit errors through the wideband chain", c, errs)
		}
		if !pl.Switch().RoutePacket(c, switchfab.Packet{Bits: dec[:infoLen]}) {
			t.Fatalf("carrier %d: switch refused the packet", c)
		}
	}

	// Transmit section: drain the switch and downlink each beam.
	tx := NewTransmitter(pl, plan)
	grid := make([][][]byte, plan.Carriers)
	for beam := range grid {
		pkts := drain(pl, beam)
		if len(pkts) != 1 {
			t.Fatalf("beam %d holds %d packets, want 1", beam, len(pkts))
		}
		grid[beam] = pkts
	}
	downCfg := modem.FrameConfig{Carriers: plan.Carriers, Slots: 1, SlotSymbols: 512, GuardSymbols: 16}
	downWide, err := tx.TransmitFrameGrid(downCfg, grid)
	if err != nil {
		t.Fatal(err)
	}

	// Ground terminal: demultiplex the downlink and demodulate beam 1.
	gDemux := frontend.NewDemux(plan, 95)
	downSplit := gDemux.Process(downWide)
	gdem := modem.NewBurstDemodulator(f, 0.35, 4, 10, modem.TimingOerderMeyr)
	res := gdem.Demodulate(downSplit[1])
	if !res.Found {
		t.Fatalf("downlink burst not found (metric %g)", res.UWMetric)
	}
	got := modem.HardBits(res.Soft)
	dec := codec.Decode(fec.HardLLR(got)[:codec.EncodedLen(infoLen)])
	if errs := fec.CountBitErrors(infos[1], dec[:infoLen]); errs != 0 {
		t.Fatalf("%d bit errors on the regenerated downlink", errs)
	}
}

// TestTransmitterServiceGating verifies the Tx side honours device health.
func TestTransmitterServiceGating(t *testing.T) {
	pl, _ := New(DefaultConfig())
	pl.SetWaveform(ModeTDMA)
	pl.SetCodec("uncoded")
	plan := frontend.CarrierPlan{Carriers: 2, Spacing: 0.2, Decim: 4}
	tx := NewTransmitter(pl, plan)

	d, _ := pl.Chipset().Device("decod-fpga") // hosts coding + switch
	d.PowerOff()
	if _, err := tx.encodeBurstInto(nil, make([]byte, 8)); err != ErrServiceDown {
		t.Fatalf("want ErrServiceDown, got %v", err)
	}
	oneSlot := modem.FrameConfig{Carriers: 2, Slots: 1, SlotSymbols: 512, GuardSymbols: 16}
	if _, err := tx.TransmitFrameGrid(oneSlot, [][][]byte{{make([]byte, 8)}, nil}); err != ErrServiceDown {
		t.Fatalf("want ErrServiceDown, got %v", err)
	}
	d.PowerOn()
	if _, err := tx.encodeBurstInto(nil, make([]byte, 8)); err != nil {
		t.Fatalf("recovery: %v", err)
	}
}

// TestTransmitterOversizedBurst rejects codings that do not fit a slot.
func TestTransmitterOversizedBurst(t *testing.T) {
	pl, _ := New(DefaultConfig())
	pl.SetWaveform(ModeTDMA)
	pl.SetCodec("turbo-r1/3")
	plan := frontend.CarrierPlan{Carriers: 2, Spacing: 0.2, Decim: 4}
	tx := NewTransmitter(pl, plan)
	// 200-symbol QPSK burst carries 400 bits; turbo needs 3k+12.
	if _, err := tx.encodeBurstInto(nil, make([]byte, 200)); err == nil {
		t.Fatal("oversized coded burst must be rejected")
	}
	if _, err := tx.encodeBurstInto(nil, make([]byte, 64)); err != nil {
		t.Fatalf("64 info bits must fit: %v", err)
	}
}

// TestTransmitterEmptyFrame: an all-idle frame is legal even as a grid
// of nil carrier rows and yields a wideband block (see tx_test.go for
// the shape assertions) — a streaming engine must be able to transmit
// silence without special-casing it.
func TestTransmitterEmptyFrame(t *testing.T) {
	pl, _ := New(DefaultConfig())
	pl.SetWaveform(ModeTDMA)
	pl.SetCodec("uncoded")
	tx := NewTransmitter(pl, frontend.CarrierPlan{Carriers: 2, Spacing: 0.2, Decim: 4})
	cfg := modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 512, GuardSymbols: 16}
	wide, err := tx.TransmitFrameGrid(cfg, make([][][]byte, 2))
	if err != nil {
		t.Fatalf("idle frame must be legal: %v", err)
	}
	if len(wide) == 0 {
		t.Fatal("idle frame produced no wideband block")
	}
}
