package payload

import (
	"math/rand"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/frontend"
	"repro/internal/modem"
)

// txTestRig boots a TDMA payload plus transmitter on a small downlink
// plan, sized so each burst carries one codeword of infoLen bits.
func txTestRig(t testing.TB, carriers int, codecName string, infoLen int) (*Payload, *Transmitter, fec.Codec) {
	t.Helper()
	pl, codec := newTDMAPayload(t, carriers, codecName, infoLen)
	plan := frontend.CarrierPlan{Carriers: carriers, Spacing: 0.2, Decim: 4}
	return pl, NewTransmitter(pl, plan), codec
}

func gridInfoBits(rng *rand.Rand, cfg modem.FrameConfig, infoLen int, fill float64) [][][]byte {
	return gridWhere(rng, cfg, infoLen, func(c, s int) bool { return rng.Float64() < fill })
}

// gridWhere fills the cells busy reports with random info bits.
func gridWhere(rng *rand.Rand, cfg modem.FrameConfig, infoLen int, busy func(c, s int) bool) [][][]byte {
	grid := make([][][]byte, cfg.Carriers)
	for c := range grid {
		grid[c] = make([][]byte, cfg.Slots)
		for s := range grid[c] {
			if !busy(c, s) {
				continue
			}
			info := make([]byte, infoLen)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			grid[c][s] = info
		}
	}
	return grid
}

// seqTxRig is the pre-pipeline sequential reference: one modulator, one
// carrier at a time, a fresh wideband block per frame. The Mux persists
// across frames so its DUC state carries over exactly like the
// transmitter's.
type seqTxRig struct {
	mod *modem.BurstModulator
	mux *frontend.Mux
	dac *frontend.DAC
}

func newSeqTxRig(pl *Payload, plan frontend.CarrierPlan) *seqTxRig {
	return &seqTxRig{
		mod: modem.NewBurstModulator(pl.BurstFormat(), 0.35, plan.Decim, 10),
		mux: frontend.NewMux(plan, 95),
		dac: frontend.NewDAC(12, 4),
	}
}

func (r *seqTxRig) frameGrid(t *testing.T, tx *Transmitter, cfg modem.FrameConfig, grid [][][]byte) dsp.Vec {
	t.Helper()
	slotLen := cfg.SlotSymbols * tx.plan.Decim
	carrierLen := cfg.Slots*slotLen + TxTailMargin
	carriers := make([]dsp.Vec, cfg.Carriers)
	for c := range carriers {
		carriers[c] = dsp.NewVec(carrierLen)
		for s, info := range grid[c] {
			if info == nil {
				continue
			}
			payloadBits, err := tx.encodeBurstInto(nil, info)
			if err != nil {
				t.Fatal(err)
			}
			copy(carriers[c][s*slotLen:], r.mod.Modulate(payloadBits))
		}
	}
	wide := r.mux.ProcessInto(dsp.NewVec(r.mux.OutLen(carrierLen)), carriers)
	return r.dac.ConvertInto(wide, wide)
}

// The concurrent grid transmitter must be bit-identical to the
// sequential reference, frame after frame (DUC state and the plan carry
// over), at every worker-pool width (GOMAXPROCS sizes the pool), on dense
// grids and on grids that are empty, one cell, the first or the last slot
// only, 5 % occupied or full, on 1 to 6 carriers.
func TestTransmitFrameGridMatchesSequential(t *testing.T) {
	const infoLen = 180
	check := func(procs, carriers, frames int, rng *rand.Rand, grid func(cfg modem.FrameConfig) [][][]byte) {
		t.Helper()
		cfg := modem.FrameConfig{Carriers: carriers, Slots: 4, SlotSymbols: 512, GuardSymbols: 16}
		atProcs(t, procs)
		pl, tx, _ := txTestRig(t, carriers, "conv-r1/2-k9", infoLen)
		// Separate rig for the reference so shared-pool modulators cannot
		// hide state leakage; encodeBurstInto is stateless so tx is reusable.
		ref := newSeqTxRig(pl, tx.plan)
		for frame := 0; frame < frames; frame++ {
			grid := grid(cfg)
			want := ref.frameGrid(t, tx, cfg, grid)
			got, err := tx.TransmitFrameGrid(cfg, grid)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d: length %d vs %d", procs, carriers, frame, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d sample %d: concurrent %v != sequential %v", procs, carriers, frame, i, got[i], want[i])
				}
			}
			// The plan's premise: a carrier is zero outside its runs.
			for c, buf := range tx.carrierBufs {
				at := 0
				for _, r := range tx.runs[c] {
					if !allZero(buf[at:r.Lo]) {
						t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d: carrier %d not zero before %v", procs, carriers, frame, c, r)
					}
					at = r.Hi
				}
				if !allZero(buf[at:]) {
					t.Fatalf("GOMAXPROCS %d, %d carriers, frame %d: carrier %d not zero past its runs", procs, carriers, frame, c)
				}
			}
			dsp.PutVec(got)
		}
	}
	for _, procs := range []int{1, 2, 4, 8} {
		rng := rand.New(rand.NewSource(5))
		check(procs, 3, 3, rng, func(cfg modem.FrameConfig) [][][]byte { return gridInfoBits(rng, cfg, infoLen, 0.7) })
	}
	for _, procs := range []int{1, 2} {
		for carriers := 1; carriers <= 6; carriers++ {
			rng := rand.New(rand.NewSource(int64(6 + carriers)))
			check(procs, carriers, 8, rng, func(cfg modem.FrameConfig) [][][]byte {
				c0, s0 := rng.Intn(cfg.Carriers), rng.Intn(cfg.Slots)
				busy := []func(c, s int) bool{
					func(c, s int) bool { return false },
					func(c, s int) bool { return c == c0 && s == s0 },
					func(c, s int) bool { return s == 0 },
					func(c, s int) bool { return s == cfg.Slots-1 },
					func(c, s int) bool { return rng.Float64() < 0.05 },
					func(c, s int) bool { return true },
				}[rng.Intn(6)]
				return gridWhere(rng, cfg, infoLen, busy)
			})
		}
	}
}

func allZero(v dsp.Vec) bool {
	for _, s := range v {
		if s != 0 {
			return false
		}
	}
	return true
}

// Every frame starts with a zero DUC history: the tail margin outlasts
// the DUC's filter tail, so a burst up to the end of the last slot
// carries nothing into the next frame, where an idle carrier then
// computes no tile.
func TestTxTailMarginOutlastsDUCTail(t *testing.T) {
	_, tx, _ := txTestRig(t, 1, "uncoded", 64)
	n := 4*512*tx.plan.Decim + TxTailMargin
	u := dsp.NewDUC(tx.plan.Freq(0), tx.plan.Spacing/2*0.9, 95, tx.plan.Decim)
	u.ProcessRunsInto(dsp.NewVec(u.OutLen(n)), dsp.NewVec(n), []dsp.Span{{Lo: 0, Hi: n - TxTailMargin}})
	if cover := u.Cover(nil, nil, n); len(cover) > 0 {
		t.Fatalf("the frame after a full carrier computes %v for its tail", cover)
	}
}

func TestTransmitFrameGridValidation(t *testing.T) {
	_, tx, _ := txTestRig(t, 2, "uncoded", 64)
	cfg := modem.FrameConfig{Carriers: 3, Slots: 2, SlotSymbols: 512, GuardSymbols: 16}
	if _, err := tx.TransmitFrameGrid(cfg, make([][][]byte, 3)); err == nil {
		t.Fatal("no error on carrier-count mismatch")
	}
	cfg.Carriers = 2
	if _, err := tx.TransmitFrameGrid(cfg, make([][][]byte, 3)); err == nil {
		t.Fatal("no error on grid/plan mismatch")
	}
	// A burst must fit a slot.
	tiny := modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 10, GuardSymbols: 2}
	if _, err := tx.TransmitFrameGrid(tiny, make([][][]byte, 2)); err == nil {
		t.Fatal("no error on burst exceeding the slot")
	}
	// A codeword must fit the burst payload.
	over := [][][]byte{{make([]byte, 1000)}, nil}
	if _, err := tx.TransmitFrameGrid(cfg, over); err == nil {
		t.Fatal("no error on a codeword exceeding the burst payload")
	}
}

// An all-idle frame is legal and yields a silent wideband block of the
// nominal shape — a streaming engine must not have to special-case
// silence.
func TestTransmitIdleFrames(t *testing.T) {
	_, tx, _ := txTestRig(t, 2, "uncoded", 64)
	cfg := modem.FrameConfig{Carriers: 2, Slots: 3, SlotSymbols: 512, GuardSymbols: 16}
	grid := make([][][]byte, 2)
	for c := range grid {
		grid[c] = make([][]byte, cfg.Slots)
	}
	gwide, err := tx.TransmitFrameGrid(cfg, grid)
	if err != nil {
		t.Fatalf("idle TransmitFrameGrid: %v", err)
	}
	if want := (cfg.Slots*cfg.SlotSymbols*tx.plan.Decim + TxTailMargin) * tx.plan.Decim; len(gwide) != want {
		t.Fatalf("idle grid wideband length %d, want %d", len(gwide), want)
	}
	if e := gwide.Energy(); e != 0 {
		t.Fatalf("idle grid carries energy %g", e)
	}
}

// Full-loop loopback: the concurrent grid transmitter's wideband output,
// demultiplexed and passed through the concurrent receive pipeline, must
// reproduce the queued info bits exactly — for both the convolutional
// and the turbo codec.
func TestTransmitFrameGridLoopback(t *testing.T) {
	cases := []struct {
		codec   string
		infoLen int
	}{
		{"conv-r1/2-k9", 180},
		{"turbo-r1/3", 128},
	}
	for _, tc := range cases {
		t.Run(tc.codec, func(t *testing.T) {
			pl, tx, codec := txTestRig(t, 3, tc.codec, tc.infoLen)
			// One burst per carrier in slot 0, so the per-carrier blocks
			// are the cells of a one-slot frame.
			cfg := modem.FrameConfig{Carriers: 3, Slots: 1, SlotSymbols: 512, GuardSymbols: 16}
			rng := rand.New(rand.NewSource(9))
			grid := gridInfoBits(rng, cfg, tc.infoLen, 1)
			wide, err := tx.TransmitFrameGrid(cfg, grid)
			if err != nil {
				t.Fatal(err)
			}
			split := frontend.NewDemux(tx.plan, 95).Process(wide)
			for c, r := range receiveCarriers(pl, 1, split) {
				if r.Err != nil {
					t.Fatalf("receive pipeline: carrier %d: %v", c, r.Err)
				}
				if errs := fec.CountBitErrors(grid[c][0], r.Bits[:tc.infoLen]); errs != 0 {
					t.Fatalf("carrier %d: %d bit errors through the closed loop", c, errs)
				}
			}
			if got := len(drain(pl, 1)); got != cfg.Carriers {
				t.Fatalf("switch received %d packets, want %d", got, cfg.Carriers)
			}
			_ = codec
		})
	}
}

// ReceiveFrameAndRouteQoS must decode every cell of a frame carrying
// several bursts per carrier bit-exactly and route in deterministic
// assignment order.
func TestReceiveFrameAndRouteMatchesSequential(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
	cfg := modem.FrameConfig{Carriers: 3, Slots: 4, SlotSymbols: 512, GuardSymbols: 16}
	fc := modem.NewFrameComposer(cfg, 4)
	mod := modem.NewBurstModulator(pl.BurstFormat(), 0.35, 4, 10)
	rng := rand.New(rand.NewSource(17))
	var asgs []modem.SlotAssignment
	var metas []RouteMeta
	var infos [][]byte
	for c := 0; c < cfg.Carriers; c++ {
		for s := 0; s < cfg.Slots; s += 2 {
			info := make([]byte, infoLen)
			for i := range info {
				info[i] = byte(rng.Intn(2))
			}
			coded := codec.Encode(info)
			padded := make([]byte, pl.BurstFormat().PayloadBits())
			copy(padded, coded)
			a := modem.SlotAssignment{Carrier: c, Slot: s}
			fc.PlaceBurst(a, mod.Modulate(padded))
			asgs = append(asgs, a)
			metas = append(metas, RouteMeta{Beam: c, InfoBits: infoLen})
			infos = append(infos, info)
		}
	}
	receipts := pl.ReceiveFrameAndRouteQoS(fc, asgs, metas)
	if len(receipts) != len(asgs) {
		t.Fatalf("%d receipts for %d assignments", len(receipts), len(asgs))
	}
	for i, r := range receipts {
		if r.Err != nil {
			t.Fatalf("cell %v: %v", r.Assignment, r.Err)
		}
		if errs := fec.CountBitErrors(infos[i], r.Bits[:infoLen]); errs != 0 {
			t.Fatalf("cell %v: %d bit errors", r.Assignment, errs)
		}
	}
	// Routed packets arrive per beam in assignment order.
	for c := 0; c < cfg.Carriers; c++ {
		pkts := drain(pl, c)
		if len(pkts) != 2 {
			t.Fatalf("beam %d holds %d packets, want 2", c, len(pkts))
		}
		k := 0
		for i := range asgs {
			if metas[i].Beam != c {
				continue
			}
			if fec.CountBitErrors(infos[i], pkts[k]) != 0 {
				t.Fatalf("beam %d packet %d does not match assignment order", c, k)
			}
			k++
		}
	}
}

func TestReceiveFrameAndRouteRequiresBeams(t *testing.T) {
	pl, _ := newTDMAPayload(t, 2, "uncoded", 64)
	cfg := modem.FrameConfig{Carriers: 2, Slots: 2, SlotSymbols: 512, GuardSymbols: 16}
	fc := modem.NewFrameComposer(cfg, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on metas/assignments mismatch")
		}
	}()
	pl.ReceiveFrameAndRouteQoS(fc, []modem.SlotAssignment{{Carrier: 0, Slot: 0}}, nil)
}
