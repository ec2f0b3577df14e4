// Package gates provides a parametric gate-count model for the payload's
// digital designs. Section 2.3 of the paper sizes the two sides of the
// waveform-migration case study — "timing recovery for MF-TDMA with 6
// carriers: 200000 gates" and "CDMA with one user: 200000 gates <
// complexity with several users" — and concludes the swap fits the same
// hardware profile. This package derives those numbers from the block
// architecture (multipliers, adders, registers, memories) rather than
// hard-coding them, so the complexity crossover as user count grows falls
// out of the model.
//
// Costs are expressed in NAND2-equivalent gates, the unit ASIC and FPGA
// datasheets (e.g. the ATMEL MH1RT's 1.2 Mgates, Table 1) use.
package gates

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Primitive gate costs (NAND2 equivalents), typical standard-cell figures.
const (
	gatesPerFullAdder = 12  // mirror adder + carry logic
	gatesPerDFF       = 8   // D flip-flop with reset
	gatesPerMux2      = 3   // per bit
	gatesPerXOR       = 2   //
	gatesPerRAMBit    = 1.5 // 6T SRAM cell in gate equivalents
	gatesPerROMBit    = 0.25
)

// Adder returns the cost of a w-bit carry-propagate adder.
func Adder(w int) int { return w * gatesPerFullAdder }

// Register returns the cost of a w-bit register.
func Register(w int) int { return w * gatesPerDFF }

// Multiplier returns the cost of a w1 x w2 array multiplier.
func Multiplier(w1, w2 int) int { return w1 * w2 * gatesPerFullAdder }

// ComplexMultiplier returns the cost of a full complex multiplier at
// width w (4 real multipliers and 2 adders).
func ComplexMultiplier(w int) int { return 4*Multiplier(w, w) + 2*Adder(w) }

// Mux returns a w-bit 2:1 multiplexer.
func Mux(w int) int { return w * gatesPerMux2 }

// XORGate returns n XOR gates.
func XORGate(n int) int { return n * gatesPerXOR }

// Comparator returns a w-bit magnitude comparator.
func Comparator(w int) int { return w * 6 }

// Accumulator returns a w-bit adder + register accumulator.
func Accumulator(w int) int { return Adder(w) + Register(w) }

// RAM returns the cost of n bits of on-chip RAM.
func RAM(nbits int) int { return int(float64(nbits) * gatesPerRAMBit) }

// ROM returns the cost of n bits of coefficient ROM.
func ROM(nbits int) int { return int(float64(nbits) * gatesPerROMBit) }

// LFSR returns a code generator of the given degree (register + feedback).
func LFSR(degree int) int { return Register(degree) + XORGate(degree/2+1) }

// Block is one named component of a design.
type Block struct {
	Name  string
	Count int // instances
	Gates int // gates per instance
}

// Total returns Count*Gates.
func (b Block) Total() int { return b.Count * b.Gates }

// Design is a gate-level budget for one reconfigurable function.
type Design struct {
	Name   string
	Blocks []Block
}

// Add appends a block.
func (d *Design) Add(name string, count, gatesEach int) {
	d.Blocks = append(d.Blocks, Block{Name: name, Count: count, Gates: gatesEach})
}

// TotalGates sums every block.
func (d *Design) TotalGates() int {
	t := 0
	for _, b := range d.Blocks {
		t += b.Total()
	}
	return t
}

// Report renders a human-readable breakdown, largest blocks first.
func (d *Design) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d gates\n", d.Name, d.TotalGates())
	blocks := slices.Clone(d.Blocks)
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Total() > blocks[j].Total() })
	for _, b := range blocks {
		fmt.Fprintf(&sb, "  %-36s %3d x %7d = %8d\n", b.Name, b.Count, b.Gates, b.Total())
	}
	return sb.String()
}
