package gates

// Power model for the payload's digital implementations. The paper's
// §4.4 closes with: "Notice that the increase of electrical power
// required by a FPGA payload instead of a ASIC payload has not been
// analyzed yet and could be a constraint for developing this technology."
// This module performs that analysis (experiment E9): dynamic CMOS power
// P = alpha * C * V^2 * f scaled per gate, with an SRAM-FPGA overhead
// factor reflecting that each logic function drags LUT muxes, routing
// switches and configuration SRAM along with it (7-10x energy/op in the
// classic FPGA-vs-ASIC gap; we use the conservative low end plus static
// configuration-memory draw).

// Technology describes one implementation technology's power behaviour.
type Technology struct {
	Name string
	// EnergyPerGateSwitch is joules per gate per switching event at the
	// nominal supply (NAND2 equivalent, includes local interconnect).
	EnergyPerGateSwitch float64
	// StaticPerGate is watts of leakage/bias per gate equivalent.
	StaticPerGate float64
	// ConfigStaticPerBit is watts per configuration SRAM bit (zero for
	// ASICs, which have no configuration memory).
	ConfigStaticPerBit float64
}

// ASIC180 is a 0.18 um space ASIC technology point (MH1RT class).
func ASIC180() Technology {
	return Technology{
		Name:                "ASIC-0.18um",
		EnergyPerGateSwitch: 0.04e-12, // 0.04 pJ/gate/switch
		StaticPerGate:       2e-9,
		ConfigStaticPerBit:  0,
	}
}

// FPGA180 is a contemporary SRAM FPGA at the same node: ~7x dynamic
// energy per realized gate plus configuration-memory leakage.
func FPGA180() Technology {
	return Technology{
		Name:                "FPGA-0.18um",
		EnergyPerGateSwitch: 0.28e-12,
		StaticPerGate:       6e-9,
		ConfigStaticPerBit:  0.5e-9,
	}
}

// PowerEstimate is the wattage breakdown of one design on a technology.
type PowerEstimate struct {
	Design     string
	Technology string
	DynamicW   float64
	StaticW    float64
	ConfigW    float64
}

// TotalW returns the summed power.
func (p PowerEstimate) TotalW() float64 { return p.DynamicW + p.StaticW + p.ConfigW }

// EstimatePower computes the power of a design on a technology at the
// given clock (Hz) and switching activity factor (fraction of gates
// toggling per cycle, typically 0.1-0.2 for DSP datapaths). configBits
// is the configuration memory carrying the design (0 for ASIC).
func EstimatePower(d *Design, tech Technology, clockHz, activity float64, configBits int) PowerEstimate {
	g := float64(d.TotalGates())
	return PowerEstimate{
		Design:     d.Name,
		Technology: tech.Name,
		DynamicW:   g * activity * clockHz * tech.EnergyPerGateSwitch,
		StaticW:    g * tech.StaticPerGate,
		ConfigW:    float64(configBits) * tech.ConfigStaticPerBit,
	}
}
