package payload

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fec"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

// composeQoSFrame builds a small MF-TDMA frame with one burst per
// carrier and returns the assignments plus the encoded info bits.
func composeQoSFrame(t *testing.T, pl *Payload, codec fec.Codec, infoLen int, seed int64) (*modem.FrameComposer, []modem.SlotAssignment, [][]byte) {
	t.Helper()
	cfg := modem.FrameConfig{Carriers: 3, Slots: 2, SlotSymbols: 512, GuardSymbols: 16}
	fc := modem.NewFrameComposer(cfg, 4)
	mod := modem.NewBurstModulator(pl.BurstFormat(), 0.35, 4, 10)
	rng := rand.New(rand.NewSource(seed))
	var asgs []modem.SlotAssignment
	var infos [][]byte
	for c := 0; c < cfg.Carriers; c++ {
		info := make([]byte, infoLen)
		for i := range info {
			info[i] = byte(rng.Intn(2))
		}
		coded := codec.Encode(info)
		padded := make([]byte, pl.BurstFormat().PayloadBits())
		copy(padded, coded)
		a := modem.SlotAssignment{Carrier: c, Slot: c % cfg.Slots}
		fc.PlaceBurst(a, mod.Modulate(padded))
		asgs = append(asgs, a)
		infos = append(infos, info)
	}
	return fc, asgs, infos
}

// The QoS route path must enqueue typed packets: class, terminal token
// and ingress stamp preserved, bits trimmed to the codeword's info
// length.
func TestReceiveFrameAndRouteQoSMetadata(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
	fc, asgs, infos := composeQoSFrame(t, pl, codec, infoLen, 23)

	type token struct{ id string }
	terms := []*token{{"a"}, {"b"}, {"c"}}
	classes := []switchfab.Class{switchfab.ClassEF, switchfab.ClassBE, switchfab.ClassAF}
	metas := make([]RouteMeta, len(asgs))
	for i := range metas {
		metas[i] = RouteMeta{Beam: i, Class: classes[i], Term: terms[i], Ingress: 7 + i, InfoBits: infoLen}
	}
	receipts := pl.ReceiveFrameAndRouteQoS(fc, asgs, metas)
	for i, r := range receipts {
		if r.Err != nil {
			t.Fatalf("cell %v: %v", r.Assignment, r.Err)
		}
		if errs := fec.CountBitErrors(infos[i], r.Bits[:infoLen]); errs != 0 {
			t.Fatalf("cell %v: %d bit errors", r.Assignment, errs)
		}
	}
	for i := range metas {
		if got := pl.Switch().ClassQueueDepth(i, classes[i]); got != 1 {
			t.Fatalf("beam %d class %s holds %d packets, want 1", i, classes[i], got)
		}
		var pkt switchfab.Packet
		n := pl.Switch().Schedule(switchfab.FIFO{}, i, 1, func(p switchfab.Packet) bool {
			pkt = p
			return true
		})
		if n != 1 {
			t.Fatalf("beam %d scheduled %d packets", i, n)
		}
		if len(pkt.Bits) != infoLen {
			t.Fatalf("beam %d packet carries %d bits, want trimmed %d", i, len(pkt.Bits), infoLen)
		}
		if fec.CountBitErrors(infos[i], pkt.Bits) != 0 {
			t.Fatalf("beam %d packet bits differ from the sent info bits", i)
		}
		if pkt.Class != classes[i] || pkt.Term != any(terms[i]) || pkt.Ingress != 7+i {
			t.Fatalf("beam %d metadata %v/%v/%d lost in routing", i, pkt.Class, pkt.Term, pkt.Ingress)
		}
	}
}

// A destination beam outside the fabric is that cell's error, not a
// silent discard (the seed's map switch accepted any integer).
func TestRouteRejectsBeamOutsideFabric(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
	fc, asgs, _ := composeQoSFrame(t, pl, codec, infoLen, 41)
	receipts := pl.ReceiveFrameAndRouteQoS(fc, asgs, []RouteMeta{{Beam: -1}, {Beam: 1}, {Beam: 3}})
	for _, i := range []int{0, 2} {
		if receipts[i].Err == nil || receipts[i].Bits != nil {
			t.Fatalf("misrouted cell not surfaced: %+v", receipts[i])
		}
	}
	if receipts[1].Err != nil {
		t.Fatal("the valid cell failed alongside the misroutes")
	}
}

// With the switch function down mid-reconfiguration every decoded cell
// carries ErrServiceDown in its receipt and nothing reaches the fabric.
func TestReceiveFrameAndRouteQoSServiceDown(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
	fc, asgs, _ := composeQoSFrame(t, pl, codec, infoLen, 5)
	var dev string
	for _, d := range pl.Chipset().DevicesFor(FuncSwitch) {
		dev = d
	}
	d, _ := pl.Chipset().Device(dev)
	d.PowerOff()
	for _, r := range pl.ReceiveFrameAndRouteQoS(fc, asgs, make([]RouteMeta, len(asgs))) {
		if !errors.Is(r.Err, ErrServiceDown) || r.Bits != nil {
			t.Fatalf("cell %v with the switch down: bits %v, err %v", r.Assignment, r.Bits != nil, r.Err)
		}
	}
	if switchRouted(pl) != 0 {
		t.Fatal("packets routed with the switch function down")
	}
}

// The fabric must survive frame routing concurrent with drainers (FIFO
// schedules of a beam's whole queue) under the race detector with exact
// packet accounting. Receive calls on one payload take turns: its
// receipts are its own buffers.
func TestConcurrentFrameRoutingAndDrain(t *testing.T) {
	const infoLen = 180
	pl, codec := newTDMAPayload(t, 3, "conv-r1/2-k9", infoLen)
	rx, _ := makeTDMABursts(pl, codec, infoLen, 31)

	const routers, frames = 4, 6
	var wg sync.WaitGroup
	var receive sync.Mutex
	drained := make([]int, routers)
	for w := 0; w < routers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < frames; f++ {
				if err := func() error {
					receive.Lock()
					defer receive.Unlock()
					for _, r := range receiveCarriers(pl, w%3, rx) {
						if r.Err != nil {
							return r.Err
						}
					}
					return nil
				}(); err != nil {
					t.Error(err)
					return
				}
				drained[w] += len(drain(pl, (w+f)%3))
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, d := range drained {
		total += d
	}
	for b := 0; b < 3; b++ {
		total += len(drain(pl, b))
	}
	if want := routers * frames * len(rx); total != want {
		t.Fatalf("drained %d packets, routed %d", total, want)
	}
}
