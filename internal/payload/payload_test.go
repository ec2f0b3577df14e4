package payload

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cdma"
	"repro/internal/dsp"
	"repro/internal/fec"
	"repro/internal/fpga"
	"repro/internal/modem"
	"repro/internal/switchfab"
)

func TestChipsetStrategies(t *testing.T) {
	for _, strat := range []Partitioning{SingleChip, PerEquipment, PerFunction} {
		cs, err := NewChipset(strat)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range AllFunctions() {
			if len(cs.DevicesFor(f)) == 0 {
				t.Fatalf("%v: no device hosts %s", strat, f)
			}
			if !cs.FunctionHealthy(f) {
				t.Fatalf("%v: %s unhealthy at boot", strat, f)
			}
		}
	}
}

func TestReloadPlanGranularity(t *testing.T) {
	// §4.4: coarser partitioning → a demod reload interrupts more
	// services.
	interrupted := map[Partitioning]int{}
	for _, strat := range []Partitioning{SingleChip, PerEquipment, PerFunction} {
		cs, err := NewChipset(strat)
		if err != nil {
			t.Fatal(err)
		}
		_, _, svcs := cs.ReloadPlan(FuncDemod)
		interrupted[strat] = len(svcs)
	}
	if interrupted[SingleChip] != len(AllFunctions()) {
		t.Fatalf("single chip must interrupt everything, got %d", interrupted[SingleChip])
	}
	if interrupted[PerEquipment] != 1 {
		t.Fatalf("per-equipment demod reload must interrupt only demod, got %d", interrupted[PerEquipment])
	}
	if interrupted[PerFunction] != 1 {
		t.Fatalf("per-function demod reload interrupts %d", interrupted[PerFunction])
	}
}

func TestReloadBytesOrdering(t *testing.T) {
	// The single chip reloads the most configuration for a demod swap.
	bytes := map[Partitioning]int{}
	for _, strat := range []Partitioning{SingleChip, PerEquipment, PerFunction} {
		cs, _ := NewChipset(strat)
		_, b, _ := cs.ReloadPlan(FuncDemod)
		bytes[strat] = b
	}
	if !(bytes[SingleChip] > bytes[PerEquipment]) {
		t.Fatalf("reload bytes: single=%d per-equipment=%d", bytes[SingleChip], bytes[PerEquipment])
	}
}

func TestServicesOnDevice(t *testing.T) {
	cs, _ := NewChipset(PerEquipment)
	svcs := cs.ServicesOn("decod-fpga")
	if len(svcs) != 3 { // decod, switch, coding share the chip
		t.Fatalf("services on decod chip: %v", svcs)
	}
}

func TestFunctionUnhealthyWhenOff(t *testing.T) {
	cs, _ := NewChipset(PerEquipment)
	d, _ := cs.Device("demod-fpga")
	d.PowerOff()
	if cs.FunctionHealthy(FuncDemod) {
		t.Fatal("powered-off device must be unhealthy")
	}
	if !cs.FunctionHealthy(FuncDemux) {
		t.Fatal("other functions unaffected")
	}
}

func TestFunctionUnhealthyWhenCorrupted(t *testing.T) {
	cs, _ := NewChipset(PerEquipment)
	d, _ := cs.Device("demod-fpga")
	d.FlipConfigBit(10)
	if cs.FunctionHealthy(FuncDemod) {
		t.Fatal("corrupted configuration must be unhealthy")
	}
}

// uncachedHealthy is the verdict FunctionHealthy caches, computed from
// scratch: every hosting device powered and equal to its golden file.
func uncachedHealthy(cs *Chipset, f Function) bool {
	for _, dn := range cs.DevicesFor(f) {
		d, _ := cs.Device(dn)
		if g, ok := cs.Golden(dn); !d.Powered() || ok && fpga.CountCorruptedFrames(d, g) > 0 {
			return false
		}
	}
	return true
}

// The cached health verdict follows every configuration write and every
// golden change: after each step of an SEU, a scrub, a reload and a
// golden swap it equals the verdict computed from scratch, also when
// many receive workers ask at once.
func TestFunctionHealthyCacheIsHonest(t *testing.T) {
	cs, err := NewChipset(PerFunction)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := cs.Device("carrier-fpga")
	boot, _ := cs.Golden("carrier-fpga")
	nl := fpga.NewNetlist("demod-v2", 4)
	nl.MarkOutput(nl.AddGate(fpga.LUTAnd, nl.AddGate(fpga.LUTOr, 0, 1), nl.AddGate(fpga.LUTXor, 2, 3)))
	v2, err := nl.Compile(d.Rows(), d.Cols())
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, want bool) {
		t.Helper()
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, f := range AllFunctions() {
					if got := cs.FunctionHealthy(f); got != uncachedHealthy(cs, f) {
						t.Errorf("%s: %s healthy=%v, uncached verdict %v", step, f, got, !got)
					}
				}
			}()
		}
		wg.Wait()
		if got := cs.FunctionHealthy(FuncDemod); got != want {
			t.Fatalf("%s: demod healthy=%v, want %v", step, got, want)
		}
	}
	check("boot", true)
	d.FlipConfigBit(3)
	check("SEU", false)
	fpga.NewBlindScrubber(boot).Scrub(d)
	check("blind scrub", true)
	d.FlipConfigBit(40)
	d.FlipConfigBit(40)
	check("SEU and its twin", true)
	d.PowerOff()
	check("power off", false)
	if err := d.FullLoad(v2); err != nil {
		t.Fatal(err)
	}
	d.PowerOn()
	check("new design against the old golden", false)
	cs.SetGolden("carrier-fpga", v2)
	check("new golden", true)
	cs.SetGolden("carrier-fpga", boot)
	check("old golden back", false)
}

// The payload's switch is now the sharded fabric (switchfab has the
// full unit suite); this pins the payload-facing contract: one shard
// per carrier beam, arrival-order drains, bounded drops after adoption.
func TestPayloadSwitchFabric(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := p.Switch()
	if sw.NumBeams() != DefaultConfig().Carriers {
		t.Fatalf("fabric serves %d beams, payload has %d carriers", sw.NumBeams(), DefaultConfig().Carriers)
	}
	route := func(beam int, b []byte) bool { return sw.RoutePacket(beam, switchfab.Packet{Bits: b}) }
	route(1, []byte("a"))
	route(1, []byte("b"))
	route(2, []byte("c"))
	if switchRouted(p) != 3 || sw.QueueDepth(1) != 2 {
		t.Fatal("routing counters")
	}
	got := drain(p, 1)
	if len(got) != 2 || string(got[0]) != "a" {
		t.Fatalf("drain %v", got)
	}
	if sw.QueueDepth(1) != 0 {
		t.Fatal("drain must empty the queue")
	}
	if sw.QueueDepth(2) != 1 {
		t.Fatal("draining beam 1 touched beam 2")
	}
	sw.Adopt(2)
	dropped := 0
	for i := 0; i < 5; i++ {
		if !route(0, []byte{byte(i)}) {
			dropped++
		}
	}
	if dropped != 3 || sw.QueueDepth(0) != 2 {
		t.Fatalf("dropped=%d depth=%d", dropped, sw.QueueDepth(0))
	}
}

func TestPayloadBootHasNoWaveform(t *testing.T) {
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode() != ModeNone {
		t.Fatalf("boot mode %v", p.Mode())
	}
	if _, err := p.DemodulateCarrier(0, dsp.NewVec(64)); err == nil {
		t.Fatal("demodulation must fail without a waveform")
	}
}

func TestPayloadCDMAEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWaveform(ModeCDMA); err != nil {
		t.Fatal(err)
	}
	if p.Mode() != ModeCDMA {
		t.Fatalf("mode %v", p.Mode())
	}
	if err := p.SetCodec("uncoded"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	bits := make([]byte, 256)
	for i := range bits {
		bits[i] = byte(rng.Intn(2))
	}
	mod := cdma.NewModulator(cfg.CDMA)
	rx := mod.Modulate(bits)
	ch := dsp.NewChannel(2)
	ch.AWGN(rx, 0.1)

	soft, err := p.DemodulateCarrier(0, rx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.decode(nil, soft)
	if err != nil {
		t.Fatal(err)
	}
	if fec.CountBitErrors(bits, got[:len(bits)]) != 0 {
		t.Fatal("CDMA payload path corrupted data")
	}
}

func TestPayloadTDMAEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if err := p.SetCodec("uncoded"); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	f := p.BurstFormat()
	payloadBits := make([]byte, f.PayloadBits())
	for i := range payloadBits {
		payloadBits[i] = byte(rng.Intn(2))
	}
	mod := modem.NewBurstModulator(f, 0.35, 4, 10)
	tx := mod.Modulate(payloadBits)
	ch := dsp.NewChannel(4)
	ch.EsN0dB = 15
	ch.SPS = 4
	rx := ch.Apply(tx)

	soft, err := p.DemodulateCarrier(0, rx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.decode(nil, soft)
	if err != nil {
		t.Fatal(err)
	}
	errs := fec.CountBitErrors(payloadBits, got[:len(payloadBits)])
	if errs > 2 {
		t.Fatalf("%d bit errors through TDMA path", errs)
	}
}

func TestPayloadWaveformMigration(t *testing.T) {
	// The Fig 3 swap: CDMA up, migrate, TDMA up; CDMA no longer decodes.
	cfg := DefaultConfig()
	p, _ := New(cfg)
	p.SetWaveform(ModeCDMA)
	p.SetCodec("uncoded")
	if p.Mode() != ModeCDMA {
		t.Fatal("initial mode")
	}
	if err := p.SetWaveform(ModeTDMA); err != nil {
		t.Fatal(err)
	}
	if p.Mode() != ModeTDMA {
		t.Fatal("migrated mode")
	}
	// A CDMA uplink block no longer demodulates.
	mod := cdma.NewModulator(cfg.CDMA)
	bits := make([]byte, 128)
	rx := mod.Modulate(bits)
	if _, err := p.DemodulateCarrier(0, rx); err == nil {
		t.Fatal("CDMA signal must not demodulate in TDMA mode")
	}
}

func TestPayloadServiceDownDuringReload(t *testing.T) {
	cfg := DefaultConfig()
	p, _ := New(cfg)
	p.SetWaveform(ModeCDMA)
	p.SetCodec("uncoded")
	d, _ := p.Chipset().Device("demod-fpga")
	d.PowerOff() // reconfiguration in progress
	mod := cdma.NewModulator(cfg.CDMA)
	rx := mod.Modulate(make([]byte, 64))
	if _, err := p.DemodulateCarrier(0, rx); err != ErrServiceDown {
		t.Fatalf("want ErrServiceDown, got %v", err)
	}
	d.PowerOn()
	if _, err := p.DemodulateCarrier(0, rx); err != nil {
		t.Fatalf("service must recover: %v", err)
	}
}

func TestPayloadCodecSelection(t *testing.T) {
	p, _ := New(DefaultConfig())
	for _, name := range []string{"uncoded", "conv-r1/2-k9", "conv-r1/3-k9", "turbo-r1/3"} {
		if err := p.SetCodec(name); err != nil {
			t.Fatal(err)
		}
		c, err := p.Codec()
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Fatalf("loaded %q resolved %q", name, c.Name())
		}
	}
}

func TestPayloadDecoderSwapChangesBehaviour(t *testing.T) {
	// Decoder reconfiguration (§2.3 bullet 1): same soft input, decoded
	// under uncoded vs convolutional rules.
	p, _ := New(DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	info := make([]byte, 100)
	for i := range info {
		info[i] = byte(rng.Intn(2))
	}
	cc := fec.UMTSConvHalf()
	llr := fec.HardLLR(cc.Encode(info))

	p.SetCodec("conv-r1/2-k9")
	dec1, err := p.decode(nil, llr)
	if err != nil {
		t.Fatal(err)
	}
	if fec.CountBitErrors(info, dec1) != 0 {
		t.Fatal("convolutional decode failed")
	}

	p.SetCodec("uncoded")
	dec2, err := p.decode(nil, llr)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec2) == len(dec1) {
		t.Fatal("uncoded decode must return the raw coded stream")
	}
}

// TestPayloadDecodeRejectsUndecodableLength: the soft-bit count comes from
// received data, so a count the active codec cannot take is an error of
// that burst (and an uplink loss to the frame pipeline), never a panic
// inside fec.
func TestPayloadDecodeRejectsUndecodableLength(t *testing.T) {
	p, _ := New(DefaultConfig())
	for _, tc := range []struct {
		codec string
		bad   []int
		good  int
	}{
		{"conv-r1/2-k9", []int{0, 7, 14, 101}, 100},
		{"conv-r1/3-k9", []int{0, 21, 100}, 99},
		{"conv-r2/3-k9p", []int{0, 5, 11}, 60},
		{"turbo-r1/3", []int{0, 11, 13, 100}, 102},
		{"uncoded", nil, 7},
	} {
		if err := p.SetCodec(tc.codec); err != nil {
			t.Fatal(err)
		}
		for _, n := range tc.bad {
			if bits, err := p.decode(nil, make([]float64, n)); err == nil {
				t.Errorf("%s: %d soft bits decoded to %d bits, want an error", tc.codec, n, len(bits))
			}
		}
		if _, err := p.decode(nil, make([]float64, tc.good)); err != nil {
			t.Errorf("%s: %d soft bits: %v", tc.codec, tc.good, err)
		}
	}
	// The burst path trims to the configured codeword first; a codeword
	// length the codec cannot take must fail there the same way.
	p.SetCodec("turbo-r1/3")
	p.SetBurstCodedBits(100)
	if _, err := p.decode(nil, make([]float64, 128)); err == nil {
		t.Error("decode: 100-bit turbo codeword must be an error")
	}
}

func TestPartitioningStrings(t *testing.T) {
	if SingleChip.String() != "single-chip" || PerFunction.String() != "per-function" {
		t.Fatal("names")
	}
	if ModeCDMA.String() != "cdma" || ModeNone.String() != "none" {
		t.Fatal("mode names")
	}
}

func TestPerFunctionDemodNeedsBothChips(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = PerFunction
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.SetWaveform(ModeCDMA)
	d, _ := p.Chipset().Device("carrier-fpga")
	d.PowerOff()
	if p.Chipset().FunctionHealthy(FuncDemod) {
		t.Fatal("demod needs both per-function chips")
	}
}
