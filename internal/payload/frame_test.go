package payload

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/modem"
)

func TestReceiveMFTDMAFrame(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Carriers = 3
	pl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl.SetWaveform(ModeTDMA)
	pl.SetCodec("uncoded")

	f := pl.BurstFormat()
	sps := 4
	frameCfg := modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: f.TotalSymbols() + 64, GuardSymbols: 16}
	fc := modem.NewFrameComposer(frameCfg, sps)

	// Three terminals on distinct (carrier, slot) cells.
	rng := rand.New(rand.NewSource(1))
	mod := modem.NewBurstModulator(f, 0.35, sps, 10)
	assignments := []modem.SlotAssignment{
		{Carrier: 0, Slot: 0}, {Carrier: 1, Slot: 2}, {Carrier: 2, Slot: 3},
	}
	payloads := make([][]byte, len(assignments))
	for i, a := range assignments {
		payloads[i] = make([]byte, f.PayloadBits())
		for j := range payloads[i] {
			payloads[i][j] = byte(rng.Intn(2))
		}
		wave := mod.Modulate(payloads[i])
		ch := dsp.NewChannelWith(int64(i)+7, 14, sps)
		fc.PlaceBurst(a, ch.Apply(wave))
	}

	metas := make([]RouteMeta, len(assignments))
	for i, a := range assignments {
		metas[i].Beam = a.Carrier
	}
	receipts := pl.ReceiveFrameAndRouteQoS(fc, assignments, metas)
	if len(receipts) != 3 {
		t.Fatalf("receipts %d", len(receipts))
	}
	for i, r := range receipts {
		if !r.Found {
			t.Fatalf("burst %d not found: %v", i, r.Err)
		}
		got := r.Bits // uncoded: the hard decisions
		errs := 0
		for j := range payloads[i] {
			if got[j] != payloads[i][j] {
				errs++
			}
		}
		if errs > 2 {
			t.Fatalf("burst %d: %d bit errors", i, errs)
		}
	}

	// An empty cell must report not-found, not a false burst.
	empty := pl.ReceiveFrameAndRouteQoS(fc, []modem.SlotAssignment{{Carrier: 0, Slot: 1}}, metas[:1])
	if empty[0].Found || empty[0].Err == nil {
		t.Fatal("false detection in an empty slot")
	}
}

func TestFrameThroughputMatchesPaperGoal(t *testing.T) {
	pl, _ := New(DefaultConfig())
	cfg := modem.DefaultFrameConfig()
	bits := cfg.Carriers * cfg.Slots * pl.BurstFormat().PayloadBits()
	// 6 carriers x 8 slots x 400 payload bits = 19200 bits per frame.
	if bits != 6*8*400 {
		t.Fatalf("frame throughput %d", bits)
	}
	// At the TDMA symbol rate a frame lasts Slots*SlotSymbols/Rsym; the
	// aggregate must be in the multi-Mbps regime the paper targets.
	frameSeconds := float64(cfg.Slots*cfg.SlotSymbols) / float64(modem.SymbolRateTDMA)
	aggregate := float64(bits) / frameSeconds
	if aggregate < 2_000_000 {
		t.Fatalf("aggregate %g bps below the 2 Mbps goal", aggregate)
	}
}
