package fpga

import "fmt"

// Netlist is a combinational gate-level circuit built from 2-input LUT
// primitives. Gates are created in topological order (every gate's inputs
// must already exist), so evaluation is a single pass. A netlist is mapped
// onto a Device by writing each gate into one CLB frame.
type Netlist struct {
	name    string
	nInputs int
	gates   []gate
	outputs []int // net indices
}

// gate is one 2-input LUT. Net numbering: nets 0..nInputs-1 are the
// primary inputs; gate i drives net nInputs+i.
type gate struct {
	lut uint8 // truth table: bit (a | b<<1)
	inA int
	inB int
}

// Common 2-input LUT truth tables.
const (
	LUTAnd uint8 = 0b1000
	LUTOr  uint8 = 0b1110
	LUTXor uint8 = 0b0110
)

// NewNetlist creates an empty circuit with the given number of primary
// inputs.
func NewNetlist(name string, inputs int) *Netlist {
	if inputs < 1 {
		panic("fpga: netlist needs at least one input")
	}
	return &Netlist{name: name, nInputs: inputs}
}

// NumGates returns the gate count.
func (n *Netlist) NumGates() int { return len(n.gates) }

// AddGate appends a LUT gate reading nets a and b and returns the index
// of the net it drives.
func (n *Netlist) AddGate(lut uint8, a, b int) int {
	max := n.nInputs + len(n.gates)
	if a < 0 || a >= max || b < 0 || b >= max {
		panic(fmt.Sprintf("fpga: gate input net out of range (a=%d b=%d max=%d)", a, b, max))
	}
	n.gates = append(n.gates, gate{lut: lut & 0xF, inA: a, inB: b})
	return max
}

// MarkOutput declares net id a primary output.
func (n *Netlist) MarkOutput(id int) {
	if id < 0 || id >= n.nInputs+len(n.gates) {
		panic("fpga: output net out of range")
	}
	n.outputs = append(n.outputs, id)
}

// Eval runs the circuit functionally (independent of any device) and
// returns the output values.
func (n *Netlist) Eval(inputs []bool) []bool {
	if len(inputs) != n.nInputs {
		panic("fpga: Eval input count mismatch")
	}
	nets := make([]bool, n.nInputs+len(n.gates))
	copy(nets, inputs)
	for i, g := range n.gates {
		nets[n.nInputs+i] = lutEval(g.lut, nets[g.inA], nets[g.inB])
	}
	out := make([]bool, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = nets[id]
	}
	return out
}

func lutEval(lut uint8, a, b bool) bool {
	idx := 0
	if a {
		idx |= 1
	}
	if b {
		idx |= 2
	}
	return lut>>uint(idx)&1 == 1
}

// Compile maps the netlist onto a bitstream for a rows x cols device,
// assigning gate i to CLB (i/cols, i%cols). It fails if the circuit does
// not fit or if a net index exceeds the routing field.
func (n *Netlist) Compile(rows, cols int) (*Bitstream, error) {
	if len(n.gates) > rows*cols {
		return nil, fmt.Errorf("fpga: %s needs %d CLBs, device has %d", n.name, len(n.gates), rows*cols)
	}
	if n.nInputs+len(n.gates) > 0xFFF {
		return nil, fmt.Errorf("fpga: %s exceeds the 12-bit net address space", n.name)
	}
	bs := NewBitstream(n.name, rows, cols)
	for i, g := range n.gates {
		bs.SetFrame(i/cols, i%cols, encodeFrame(g.lut, g.inA, g.inB, true))
	}
	return bs, nil
}
