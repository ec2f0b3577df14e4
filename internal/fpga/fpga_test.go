package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// parityCircuit builds an n-input XOR chain.
func parityCircuit(n int) *Netlist {
	nl := NewNetlist("parity", n)
	acc := 0
	for i := 1; i < n; i++ {
		acc = nl.AddGate(LUTXor, acc, i)
	}
	nl.MarkOutput(acc)
	return nl
}

// adder2 builds a 2-bit adder with carry out (3 outputs).
func adder2() *Netlist {
	nl := NewNetlist("adder2", 4) // a0 a1 b0 b1
	s0 := nl.AddGate(LUTXor, 0, 2)
	c0 := nl.AddGate(LUTAnd, 0, 2)
	x1 := nl.AddGate(LUTXor, 1, 3)
	s1 := nl.AddGate(LUTXor, x1, c0)
	a1b1 := nl.AddGate(LUTAnd, 1, 3)
	x1c0 := nl.AddGate(LUTAnd, x1, c0)
	c1 := nl.AddGate(LUTOr, a1b1, x1c0)
	nl.MarkOutput(s0)
	nl.MarkOutput(s1)
	nl.MarkOutput(c1)
	return nl
}

func randInputs(rng *rand.Rand, n int) []bool {
	in := make([]bool, n)
	for i := range in {
		in[i] = rng.Intn(2) == 1
	}
	return in
}

func TestNetlistEvalParity(t *testing.T) {
	nl := parityCircuit(8)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		in := randInputs(rng, 8)
		want := false
		for _, b := range in {
			want = want != b
		}
		if got := nl.Eval(in)[0]; got != want {
			t.Fatalf("parity mismatch on trial %d", trial)
		}
	}
}

func TestNetlistEvalAdder(t *testing.T) {
	nl := adder2()
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			in := []bool{a&1 == 1, a&2 == 2, b&1 == 1, b&2 == 2}
			out := nl.Eval(in)
			got := btoi(out[0]) | btoi(out[1])<<1 | btoi(out[2])<<2
			if got != a+b {
				t.Fatalf("%d+%d = %d", a, b, got)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestNetlistValidation(t *testing.T) {
	nl := NewNetlist("v", 2)
	for _, f := range []func(){
		func() { nl.AddGate(LUTAnd, 0, 5) },
		func() { nl.MarkOutput(99) },
		func() { nl.Eval([]bool{true}) },
		func() { NewNetlist("x", 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDevicePowerAndLoadRules(t *testing.T) {
	d := NewDevice("demod-fpga", 8, 8)
	bs, err := parityCircuit(8).Compile(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	d.PowerOn()
	if err := d.FullLoad(bs); err == nil {
		t.Fatal("full load must fail while powered")
	}
	d.PowerOff()
	if err := d.FullLoad(bs); err != nil {
		t.Fatal(err)
	}
	if d.LoadedDesign() != "parity" {
		t.Fatalf("loaded design %q", d.LoadedDesign())
	}
	full, _, _ := d.Stats()
	if full != 1 {
		t.Fatal("full load counter")
	}
}

func TestDeviceRejectsWrongGeometry(t *testing.T) {
	d := NewDevice("x", 4, 4)
	bs, _ := parityCircuit(4).Compile(8, 8)
	if err := d.FullLoad(bs); err == nil {
		t.Fatal("geometry mismatch must fail")
	}
}

func TestBitstreamMarshalRoundTrip(t *testing.T) {
	bs, _ := adder2().Compile(4, 4)
	data := bs.Marshal()
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Design != bs.Design || got.Rows != bs.Rows || got.Cols != bs.Cols {
		t.Fatal("header mismatch")
	}
	for i := range bs.Frames {
		if got.Frames[i] != bs.Frames[i] {
			t.Fatalf("frame byte %d differs", i)
		}
	}
}

func TestBitstreamCorruptionDetected(t *testing.T) {
	bs, _ := adder2().Compile(4, 4)
	data := bs.Marshal()
	for _, pos := range []int{0, 5, len(data) / 2, len(data) - 1} {
		bad := append([]byte{}, data...)
		bad[pos] ^= 0x10
		if _, err := Unmarshal(bad); err == nil {
			t.Fatalf("corruption at %d not detected", pos)
		}
	}
	if _, err := Unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("short input must fail")
	}
}

func TestPropertyBitstreamRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bs := NewBitstream("p", 4, 4)
		rng.Read(bs.Frames)
		got, err := Unmarshal(bs.Marshal())
		if err != nil {
			return false
		}
		for i := range bs.Frames {
			if got.Frames[i] != bs.Frames[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompileTooLarge(t *testing.T) {
	if _, err := parityCircuit(64).Compile(4, 4); err == nil {
		t.Fatal("oversized circuit must not compile")
	}
}

func TestSnapshotMatchesLoadedConfig(t *testing.T) {
	nl := adder2()
	d := NewDevice("t", 4, 4)
	bs, _ := nl.Compile(4, 4)
	d.FullLoad(bs)
	snap := Snapshot(d, "golden")
	if snap.CRC32() != bs.CRC32() {
		t.Fatal("snapshot differs from loaded bitstream")
	}
	if d.ConfigCRC() != bs.CRC32() {
		t.Fatal("device CRC differs")
	}
}

// flipLUT upsets one truth-table bit of gate g, as an SEU in the gate's
// configuration frame would; flipping it again restores the gate.
func flipLUT(n *Netlist, g, bit int) { n.gates[g].lut ^= 1 << bit }

func TestTMRMasksSingleCopyFault(t *testing.T) {
	nl := adder2()
	tmr := TMR(nl)

	rng := rand.New(rand.NewSource(4))
	// Flip a bit inside copy 0's gate region (gates 0..6 of 3*7+12).
	copyGates := nl.NumGates()
	for trial := 0; trial < 20; trial++ {
		gate, bit := rng.Intn(copyGates), rng.Intn(4) // a copy-0 gate
		flipLUT(tmr, gate, bit)
		for i := 0; i < 16; i++ {
			in := randInputs(rng, 4)
			want := nl.Eval(in)
			got := tmr.Eval(in)
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d: TMR failed to mask a single-copy fault", trial)
				}
			}
		}
		flipLUT(tmr, gate, bit) // restore
	}
}

func TestTMRDoubleFaultCanEscape(t *testing.T) {
	// Faults in two different copies of the same logic can defeat the
	// voter — the pe^2 mechanism. Verify at least one such pair does.
	nl := parityCircuit(4)
	tmr := TMR(nl)

	g := nl.NumGates()
	escaped := false
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50 && !escaped; trial++ {
		g1, b1 := rng.Intn(g), rng.Intn(4)   // a copy-0 gate
		g2, b2 := g+rng.Intn(g), rng.Intn(4) // a copy-1 gate
		flipLUT(tmr, g1, b1)
		flipLUT(tmr, g2, b2)
		for i := 0; i < 16; i++ {
			in := randInputs(rng, 4)
			if tmr.Eval(in)[0] != nl.Eval(in)[0] {
				escaped = true
				break
			}
		}
		flipLUT(tmr, g1, b1)
		flipLUT(tmr, g2, b2)
	}
	if !escaped {
		t.Fatal("no double fault escaped the voter in 50 trials (suspicious)")
	}
}

func TestTMROverheadExceedsThree(t *testing.T) {
	nl := adder2()
	if o := GateOverhead(nl, TMR(nl)); o <= 3 {
		t.Fatalf("TMR overhead %g must exceed 3x", o)
	}
	if o := GateOverhead(nl, DuplicateXOR(nl)); o <= 2 {
		t.Fatalf("duplication overhead %g must exceed 2x", o)
	}
}

func TestDuplicateXORDetects(t *testing.T) {
	nl := adder2()
	dup := DuplicateXOR(nl)

	rng := rand.New(rand.NewSource(6))
	// Clean: error flag (last output) must stay low.
	for i := 0; i < 32; i++ {
		in := randInputs(rng, 4)
		out := dup.Eval(in)
		if out[len(out)-1] {
			t.Fatal("false error flag on clean device")
		}
	}
	// Fault in copy 0: whenever the passthrough output is wrong, the
	// flag must be high.
	flipLUT(dup, 0, 2) // gate 0 (copy 0)
	for i := 0; i < 64; i++ {
		in := randInputs(rng, 4)
		want := nl.Eval(in)
		out := dup.Eval(in)
		wrong := false
		for k := range want {
			if out[k] != want[k] {
				wrong = true
			}
		}
		if wrong && !out[len(out)-1] {
			t.Fatal("fault corrupted output without raising the flag")
		}
	}
}

func TestBlindScrubberRepairsEverything(t *testing.T) {
	nl := parityCircuit(8)
	d := NewDevice("t", 8, 8)
	bs, _ := nl.Compile(8, 8)
	d.FullLoad(bs)
	d.PowerOn()
	golden := Snapshot(d, "golden")

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		d.FlipConfigBit(rng.Intn(d.ConfigBits()))
	}
	if CountCorruptedFrames(d, golden) == 0 {
		t.Fatal("no corruption injected")
	}
	s := NewBlindScrubber(golden)
	s.Scrub(d)
	if CountCorruptedFrames(d, golden) != 0 {
		t.Fatal("blind scrub left corruption")
	}
	if s.PortWritesPerPass(d) != 64 {
		t.Fatal("blind scrub write accounting")
	}
}

func TestReadbackScrubberModes(t *testing.T) {
	for _, mode := range []DetectMode{DetectCompareFull, DetectCRC} {
		nl := parityCircuit(8)
		d := NewDevice("t", 8, 8)
		bs, _ := nl.Compile(8, 8)
		d.FullLoad(bs)
		golden := Snapshot(d, "golden")
		s := NewReadbackScrubber(golden, mode)

		// Clean pass repairs nothing.
		if got := s.Scrub(d); got != 0 {
			t.Fatalf("%s repaired %d on clean device", s.Name(), got)
		}
		// Corrupt 3 distinct frames.
		d.FlipConfigBit(0 * 32)
		d.FlipConfigBit(5*32 + 7)
		d.FlipConfigBit(9*32 + 20)
		if got := s.Scrub(d); got != 3 {
			t.Fatalf("%s repaired %d frames, want 3", s.Name(), got)
		}
		if CountCorruptedFrames(d, golden) != 0 {
			t.Fatalf("%s left corruption", s.Name())
		}
	}
}

func TestScrubberStorageCosts(t *testing.T) {
	bs := NewBitstream("g", 16, 16)
	full := NewReadbackScrubber(bs, DetectCompareFull)
	crc := NewReadbackScrubber(bs, DetectCRC)
	if full.StorageBytes() != 16*16*FrameBytes {
		t.Fatal("full compare storage")
	}
	if crc.StorageBytes() != 2*16*16 {
		t.Fatal("CRC storage")
	}
	// The paper's point: per-cell CRC is cheaper than memorizing the file.
	if crc.StorageBytes() >= full.StorageBytes() {
		t.Fatal("CRC mode must be cheaper")
	}
}

func TestPartialWriteDoesNotRequirePowerOff(t *testing.T) {
	d := NewDevice("t", 4, 4)
	d.PowerOn()
	d.PartialWrite(1, 2, [FrameBytes]byte{1, 2, 3, 4})
	if got := d.Readback(1, 2); got != [FrameBytes]byte{1, 2, 3, 4} {
		t.Fatal("partial write/readback while powered")
	}
	_, pw, rb := d.Stats()
	if pw != 1 || rb != 1 {
		t.Fatal("transaction counters")
	}
}
