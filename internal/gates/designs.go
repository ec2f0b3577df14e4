package gates

// Design estimates for the payload functions discussed in the paper. The
// datapath width is 12 bits, typical for on-board modem implementations of
// the era; filter spans match the DSP substrate's defaults.

// DatapathWidth is the I/Q sample width used by every design.
const DatapathWidth = 12

// MH1RTCapacity is the gate capacity of the ATMEL MH1RT space ASIC
// (Table 1 of the paper).
const MH1RTCapacity = 1_200_000

// TDMATimingRecovery sizes the MF-TDMA timing recovery of §2.3: one
// Gardner-style closed loop per carrier (matched filter sharing is NOT
// assumed — each carrier runs its own interpolator, detector and loop, as
// in the paper's per-demodulator structure of Fig 2).
func TDMATimingRecovery(carriers int) *Design {
	w := DatapathWidth
	d := &Design{Name: "tdma-timing-recovery"}
	perCarrier := 0
	// Cubic (Farrow) interpolator on I and Q: the 1/6 and 1/2 Lagrange
	// coefficients reduce to shift-adds, leaving 5 true multipliers per
	// rail for the Horner evaluation.
	perCarrier += 2 * (5*Multiplier(w, w) + 7*Adder(w) + 4*Register(w))
	// Gardner TED: one complex multiplier plus differencer.
	perCarrier += ComplexMultiplier(w) + 2*Adder(w)
	// Proportional+integral loop filter: 2 multipliers, 2 accumulators.
	perCarrier += 2*Multiplier(w, w) + 2*Accumulator(w+8)
	// Symbol NCO / strobe counter (fractional, 24-bit accumulator).
	perCarrier += Accumulator(24) + Comparator(24)
	// Half-symbol delay line and strobe registers.
	perCarrier += 6 * Register(2*w)
	d.Add("per-carrier timing loop", carriers, perCarrier)
	// Shared control/sequencing.
	d.Add("control & sequencing", 1, 4000)
	return d
}

// CDMADemodulator sizes the CDMA demodulator of §2.3: matched chip filter,
// serial-search acquisition, and one tracking/despreading finger per user.
// Acquisition hardware and the chip matched filter are shared; per-user
// cost is the DLL finger, despreader and code generators, which is why
// complexity grows with the user count ("200000 gates < complexity with
// several users").
func CDMADemodulator(users int) *Design {
	w := DatapathWidth
	d := &Design{Name: "cdma-demodulator"}

	// Chip matched filter (RRC, 40 taps, I and Q): the symmetric impulse
	// response folds the transposed FIR to one multiplier per tap pair.
	taps := 40
	d.Add("chip matched filter", 1,
		2*(taps/2*Multiplier(w, w)+taps*Adder(w+4)+taps*Register(w))+ROM(taps*w))

	// Serial-search acquisition: 64-chip correlation window. The code is
	// ±1 so each tap is an add/subtract; accumulate I and Q, magnitude,
	// threshold compare; code-phase control.
	win := 64
	d.Add("acquisition correlator", 1,
		2*(win*Adder(w+6)+Register(w+6)*win)+2*Multiplier(w+6, w+6)+Comparator(2*w)+Accumulator(16))

	// Per-user finger: early/late/on-time despreading correlators
	// (accumulators; code is ±1), cubic interpolator, DLL loop filter,
	// code generators (Gold LFSRs + OVSF counter), symbol integrator.
	perUser := 0
	perUser += 3 * 2 * Accumulator(w+6)                    // E/L/P x I/Q
	perUser += 2 * (6*Multiplier(w, w) + 8*Adder(w))       // interpolator
	perUser += 2*Multiplier(w, w) + 2*Accumulator(w+8)     // loop filter
	perUser += 2*LFSR(10) + Accumulator(10) + Register(16) // code gen
	perUser += 2*Accumulator(w+8) + Register(2*w)          // symbol dump
	perUser += 2 * ComplexMultiplier(w)                    // phase rotator
	d.Add("per-user tracking finger", users, perUser)

	// AGC and common control.
	d.Add("AGC", 1, 2*Multiplier(w, w)+Accumulator(w+8))
	d.Add("control & sequencing", 1, 6000)
	return d
}

// ConvolutionalDecoder sizes a K=9 soft-decision Viterbi decoder: 256
// add-compare-select butterflies, path metric memory and traceback.
func ConvolutionalDecoder(constraintLen, outputs int) *Design {
	d := &Design{Name: "viterbi-decoder"}
	states := 1 << uint(constraintLen-1)
	mw := 10 // path metric width
	// Branch metric units: one adder tree per output bit.
	d.Add("branch metric units", outputs*4, Adder(mw))
	// ACS: two adders, comparator, mux and metric register per state.
	d.Add("ACS units", states, 2*Adder(mw)+Comparator(mw)+Mux(mw)+Register(mw))
	// Traceback memory: 64-step window, 1 decision bit per state per step.
	d.Add("traceback memory", 1, RAM(states*64))
	d.Add("traceback logic", 1, 3000)
	return d
}

// TurboDecoder sizes an 8-state max-log-MAP SISO pair with interleaver
// memories (iterations reuse the same hardware, so iteration count does
// not change area — only latency).
func TurboDecoder(blockLen int) *Design {
	d := &Design{Name: "turbo-decoder"}
	w := 10
	states := 8
	// Two SISO units (alpha, beta, extrinsic datapaths).
	siso := states*(2*Adder(w)+Comparator(w)+Mux(w)+Register(w))*3 + 8*Adder(w)
	d.Add("SISO units", 2, siso)
	// State metric and extrinsic memories sized by block length.
	d.Add("metric memory", 1, RAM(blockLen*states*w))
	d.Add("extrinsic memory", 2, RAM(blockLen*w))
	d.Add("interleaver tables", 2, ROM(blockLen*16))
	d.Add("control & sequencing", 1, 5000)
	return d
}
