package fpga

// SEU mitigation structures of §4.3. Both transforms operate on netlists,
// so their gate overhead is structural (counted in CLBs) and their fault
// behaviour emerges from real injected upsets rather than assumed rates.

// replicate adds copies of n's gates to t, copy after copy, and returns
// remap: remap[c][net] is copy c's net for n's net (the primary inputs
// are shared).
func replicate(t, n *Netlist, copies int) [][]int {
	remap := make([][]int, copies)
	for c := range remap {
		remap[c] = make([]int, n.nInputs+len(n.gates))
		for i := 0; i < n.nInputs; i++ {
			remap[c][i] = i
		}
		for gi, g := range n.gates {
			remap[c][n.nInputs+gi] = t.AddGate(g.lut, remap[c][g.inA], remap[c][g.inB])
		}
	}
	return remap
}

// TMR returns a triple-modular-redundancy version of the circuit: three
// copies of every gate plus a majority voter per output. The paper notes
// the false-event probability becomes pe^2 (two simultaneous copy
// failures) at the cost of more than tripling the gate count.
func TMR(n *Netlist) *Netlist {
	t := NewNetlist(n.name+"-tmr", n.nInputs)
	remap := replicate(t, n, 3)
	for _, out := range n.outputs {
		a, b, c := remap[0][out], remap[1][out], remap[2][out]
		// Majority: (a AND b) OR (c AND (a OR b)).
		ab := t.AddGate(LUTAnd, a, b)
		aOrB := t.AddGate(LUTOr, a, b)
		cAnd := t.AddGate(LUTAnd, c, aOrB)
		maj := t.AddGate(LUTOr, ab, cAnd)
		t.MarkOutput(maj)
	}
	return t
}

// DuplicateXOR returns a duplicated version of the circuit with an error
// flag: two copies, the first copy's outputs pass through, and an extra
// final output goes high when any pair of copy outputs disagrees. The
// paper: "the presence of a SEU is detected through a XOR operation with
// two replica of the same logical function. The correction of the result
// is not performed."
func DuplicateXOR(n *Netlist) *Netlist {
	t := NewNetlist(n.name+"-dup", n.nInputs)
	remap := replicate(t, n, 2)
	// Pass through copy-0 outputs.
	for _, out := range n.outputs {
		t.MarkOutput(remap[0][out])
	}
	// Error flag: OR of XORs.
	flag := -1
	for _, out := range n.outputs {
		x := t.AddGate(LUTXor, remap[0][out], remap[1][out])
		if flag < 0 {
			flag = x
		} else {
			flag = t.AddGate(LUTOr, flag, x)
		}
	}
	if flag >= 0 {
		t.MarkOutput(flag)
	}
	return t
}

// GateOverhead returns the gate-count ratio of the mitigated circuit to
// the original (e.g. ~3.1 for TMR on a circuit with few outputs).
func GateOverhead(original, mitigated *Netlist) float64 {
	if original.NumGates() == 0 {
		return 0
	}
	return float64(mitigated.NumGates()) / float64(original.NumGates())
}
