package fpga

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCircuit builds a random combinational netlist with the given
// inputs and gate count.
func randomCircuit(rng *rand.Rand, inputs, ngates int) *Netlist {
	nl := NewNetlist("rand", inputs)
	luts := []uint8{LUTAnd, LUTOr, LUTXor, 0b0111, 0b0001} // ..., NAND, NOR
	for i := 0; i < ngates; i++ {
		max := inputs + nl.NumGates()
		nl.AddGate(luts[rng.Intn(len(luts))], rng.Intn(max), rng.Intn(max))
	}
	// Mark the last few nets as outputs.
	for k := 0; k < 3 && k < nl.NumGates(); k++ {
		nl.MarkOutput(inputs + nl.NumGates() - 1 - k)
	}
	return nl
}

// TestPropertyTMRPreservesFunction: for random circuits and random
// inputs, the TMR transform computes the same outputs as the original.
func TestPropertyTMRPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomCircuit(rng, 4+rng.Intn(4), 3+rng.Intn(12))
		tmr := TMR(nl)
		for trial := 0; trial < 8; trial++ {
			in := make([]bool, nl.nInputs)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			want := nl.Eval(in)
			got := tmr.Eval(in)
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDuplicateXORCleanFlagLow: with no faults, the duplication
// error flag is always low and the passthrough outputs match.
func TestPropertyDuplicateXORCleanFlagLow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomCircuit(rng, 4+rng.Intn(4), 3+rng.Intn(12))
		dup := DuplicateXOR(nl)
		for trial := 0; trial < 8; trial++ {
			in := make([]bool, nl.nInputs)
			for i := range in {
				in[i] = rng.Intn(2) == 1
			}
			want := nl.Eval(in)
			got := dup.Eval(in)
			if got[len(got)-1] { // error flag
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyScrubRestoresCRC: after arbitrary bit flips, one blind
// scrub pass always restores the golden CRC.
func TestPropertyScrubRestoresCRC(t *testing.T) {
	f := func(seed int64, flips uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nl := randomCircuit(rng, 4, 10)
		bs, err := nl.Compile(8, 8)
		if err != nil {
			return true
		}
		d := NewDevice("p", 8, 8)
		if d.FullLoad(bs) != nil {
			return false
		}
		golden := Snapshot(d, "g")
		for i := 0; i < int(flips%32); i++ {
			d.FlipConfigBit(rng.Intn(d.ConfigBits()))
		}
		NewBlindScrubber(golden).Scrub(d)
		return d.ConfigCRC() == golden.CRC32()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
