// Package payload assembles the regenerative MF-TDMA payload of Fig 2:
// the receive section (ADC, DBFN+DEMUX, per-carrier DEMOD, DECOD), the
// baseband packet switch, and the transmit section, with every digital
// function hosted on simulated FPGAs so that in-flight reconfiguration
// (the paper's software-radio concept) interrupts and restores real
// traffic. It also implements the §4.4 partitioning study: one chip for
// all equipment, one chip per equipment, or one chip per modem function.
package payload

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/fpga"
)

// Function names the payload's digital equipment.
type Function string

// The reconfigurable functions of Fig 2.
const (
	FuncDemux  Function = "demux"
	FuncDemod  Function = "demod"
	FuncDecod  Function = "decod"
	FuncSwitch Function = "switch"
	FuncCoding Function = "coding" // Tx-side encoder
)

// AllFunctions lists every payload function.
func AllFunctions() []Function {
	return []Function{FuncDemux, FuncDemod, FuncDecod, FuncSwitch, FuncCoding}
}

// Partitioning selects the chip-level realization strategy of §4.4.
type Partitioning int

// The three strategies the paper discusses.
const (
	// SingleChip hosts demux, demod and decod on one device: smallest
	// part count, but any reconfiguration takes everything down.
	SingleChip Partitioning = iota
	// PerEquipment gives each equipment its own device — the modem can
	// be reloaded without touching the demultiplexer or decoder, at the
	// cost of fixed inter-chip interfaces.
	PerEquipment
	// PerFunction splits the modem itself across devices (timing
	// recovery separate from the rest), the finest reload granularity
	// the paper considers.
	PerFunction
)

// String implements fmt.Stringer.
func (p Partitioning) String() string {
	switch p {
	case SingleChip:
		return "single-chip"
	case PerEquipment:
		return "per-equipment"
	default:
		return "per-function"
	}
}

// Chipset is the set of FPGAs realizing the payload functions under one
// partitioning strategy, with golden configurations for integrity checks.
type Chipset struct {
	devices   map[string]*fpga.Device
	placement map[Function][]string // function -> hosting device names
	goldens   map[string]*golden
}

// golden is a device's reference configuration and the last verdict of
// comparing the device against it. Every configuration write bumps the
// device's generation and SetGolden installs a fresh golden, so the
// verdict is recomputed only after one of them; concurrent callers
// publish whole verdicts atomically.
type golden struct {
	bs      *fpga.Bitstream
	checked atomic.Pointer[verdict]
}

type verdict struct {
	gen    uint64
	intact bool
}

// deviceGeometry sizes devices so reload time scales with what they host.
func deviceGeometry(strategy Partitioning) map[string][2]int {
	switch strategy {
	case SingleChip:
		return map[string][2]int{"payload-fpga": {48, 48}}
	case PerEquipment:
		return map[string][2]int{
			"demux-fpga": {24, 24},
			"demod-fpga": {32, 32},
			"decod-fpga": {24, 24},
		}
	default: // PerFunction
		return map[string][2]int{
			"demux-fpga":   {24, 24},
			"timing-fpga":  {16, 16},
			"carrier-fpga": {16, 16},
			"decod-fpga":   {24, 24},
		}
	}
}

// placementFor maps functions onto devices for a strategy.
func placementFor(strategy Partitioning) map[Function][]string {
	switch strategy {
	case SingleChip:
		all := []string{"payload-fpga"}
		return map[Function][]string{
			FuncDemux: all, FuncDemod: all, FuncDecod: all,
			FuncSwitch: all, FuncCoding: all,
		}
	case PerEquipment:
		return map[Function][]string{
			FuncDemux:  {"demux-fpga"},
			FuncDemod:  {"demod-fpga"},
			FuncDecod:  {"decod-fpga"},
			FuncSwitch: {"decod-fpga"},
			FuncCoding: {"decod-fpga"},
		}
	default:
		return map[Function][]string{
			FuncDemux:  {"demux-fpga"},
			FuncDemod:  {"timing-fpga", "carrier-fpga"},
			FuncDecod:  {"decod-fpga"},
			FuncSwitch: {"decod-fpga"},
			FuncCoding: {"decod-fpga"},
		}
	}
}

// NewChipset creates and boots the devices for a strategy, loading a
// placeholder boot design on each.
func NewChipset(strategy Partitioning) (*Chipset, error) {
	cs := &Chipset{
		devices:   make(map[string]*fpga.Device),
		placement: placementFor(strategy),
		goldens:   make(map[string]*golden),
	}
	for name, geom := range deviceGeometry(strategy) {
		d := fpga.NewDevice(name, geom[0], geom[1])
		boot := bootDesign(name, geom[0], geom[1])
		if err := d.FullLoad(boot); err != nil {
			return nil, fmt.Errorf("payload: boot %s: %w", name, err)
		}
		d.PowerOn()
		cs.devices[name] = d
		cs.goldens[name] = &golden{bs: boot}
	}
	return cs, nil
}

// bootDesign synthesizes a small placeholder circuit so every device has
// real (non-zero) configuration contents.
func bootDesign(name string, rows, cols int) *fpga.Bitstream {
	nl := fpga.NewNetlist("boot-"+name, 8)
	acc := 0
	for i := 1; i < 8; i++ {
		acc = nl.AddGate(fpga.LUTXor, acc, i)
	}
	nl.MarkOutput(acc)
	bs, err := nl.Compile(rows, cols)
	if err != nil {
		panic("payload: boot design does not fit: " + err.Error())
	}
	return bs
}

// Devices returns the managed devices.
func (cs *Chipset) Devices() map[string]*fpga.Device { return cs.devices }

// Device returns a device by name.
func (cs *Chipset) Device(name string) (*fpga.Device, bool) {
	d, ok := cs.devices[name]
	return d, ok
}

// DevicesFor returns the devices hosting a function.
func (cs *Chipset) DevicesFor(f Function) []string {
	return append([]string{}, cs.placement[f]...)
}

// ServicesOn returns every function hosted (fully or partly) on a device
// — the services that go down when that device reloads.
func (cs *Chipset) ServicesOn(device string) []Function {
	var out []Function
	for _, f := range AllFunctions() {
		if slices.Contains(cs.placement[f], device) {
			out = append(out, f)
		}
	}
	return out
}

// ReloadPlan returns, for a reconfiguration of the given function, the
// devices that must be reloaded, the total configuration bytes to
// transfer, and every service interrupted while they are down.
func (cs *Chipset) ReloadPlan(f Function) (devices []string, reloadBytes int, interrupted []Function) {
	devices = cs.DevicesFor(f)
	for _, dn := range devices {
		d := cs.devices[dn]
		reloadBytes += d.CLBs() * fpga.FrameBytes
		for _, svc := range cs.ServicesOn(dn) {
			if !slices.Contains(interrupted, svc) {
				interrupted = append(interrupted, svc)
			}
		}
	}
	return devices, reloadBytes, interrupted
}

// SetGolden records the reference configuration of a device (after a
// successful reconfiguration).
func (cs *Chipset) SetGolden(device string, bs *fpga.Bitstream) {
	cs.goldens[device] = &golden{bs: bs}
}

// Golden returns the reference configuration.
func (cs *Chipset) Golden(device string) (*fpga.Bitstream, bool) {
	if g, ok := cs.goldens[device]; ok {
		return g.bs, true
	}
	return nil, false
}

// FunctionHealthy reports whether every device hosting the function is
// powered and configuration-intact (no uncorrected upsets).
func (cs *Chipset) FunctionHealthy(f Function) bool {
	for _, dn := range cs.placement[f] {
		d := cs.devices[dn]
		if g, ok := cs.goldens[dn]; !d.Powered() || ok && !g.intact(d) {
			return false
		}
	}
	return true
}

// intact reports whether d's configuration matches the golden file,
// comparing frames only when d was written since the last verdict.
func (g *golden) intact(d *fpga.Device) bool {
	if v := g.checked.Load(); v != nil && v.gen == d.Generation() {
		return v.intact
	}
	v := &verdict{gen: d.Generation(), intact: fpga.CountCorruptedFrames(d, g.bs) == 0}
	g.checked.Store(v)
	return v.intact
}
