// Package fpga simulates the SRAM-based reprogrammable device at the
// centre of the paper's software-radio payload (§4): a grid of
// configurable logic blocks (CLBs) addressed by row and column, a
// configuration memory loadable through a JTAG-like port, the "read-back"
// and "partial configuration" functions the paper highlights in Xilinx
// parts, a gate-level netlist engine mapped onto the LUT bits so that
// single-event upsets in the configuration really change logic behaviour,
// and the SEU mitigation structures of §4.3 (triple modular redundancy,
// duplication with XOR detection, and configuration scrubbing).
package fpga

import (
	"encoding/binary"
	"fmt"

	"repro/internal/fec"
)

// FrameBytes is the size of one CLB configuration frame. Layout:
//
//	bits  0..3   LUT truth table (2-input lookup)
//	bits  4..15  input A net index
//	bits 16..27  input B net index
//	bit  28      CLB used flag
//	bits 29..31  reserved
const FrameBytes = 4

// Device is a simulated SRAM FPGA.
type Device struct {
	name string
	rows int
	cols int

	config  []byte // rows*cols*FrameBytes of configuration memory
	gen     uint64 // configuration generation, bumped by every write
	powered bool

	loadedDesign string // name from the last full bitstream load

	// Counters for the experiments.
	fullLoads     int
	partialWrites int
	readbacks     int
}

// NewDevice creates a device with the given CLB grid.
func NewDevice(name string, rows, cols int) *Device {
	if rows < 1 || cols < 1 {
		panic("fpga: device needs a positive CLB grid")
	}
	return &Device{
		name:   name,
		rows:   rows,
		cols:   cols,
		config: make([]byte, rows*cols*FrameBytes),
	}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Rows and Cols return the CLB grid dimensions.
func (d *Device) Rows() int { return d.rows }

// Cols returns the number of CLB columns.
func (d *Device) Cols() int { return d.cols }

// CLBs returns the total CLB count.
func (d *Device) CLBs() int { return d.rows * d.cols }

// ConfigBits returns the size of the configuration memory in bits.
func (d *Device) ConfigBits() int { return len(d.config) * 8 }

// Powered reports whether the device is switched on.
func (d *Device) Powered() bool { return d.powered }

// PowerOn switches the device (and the services it carries) on.
func (d *Device) PowerOn() { d.powered = true }

// PowerOff switches the device off; the paper's reconfiguration procedure
// requires this before a full reload.
func (d *Device) PowerOff() { d.powered = false }

// Generation counts configuration-memory writes (FullLoad,
// PartialWrite, FlipConfigBit): a comparison against a golden file
// holds for as long as it is unchanged.
func (d *Device) Generation() uint64 { return d.gen }

// LoadedDesign returns the name of the currently loaded design.
func (d *Device) LoadedDesign() string { return d.loadedDesign }

// Stats returns the configuration-port transaction counters
// (full loads, partial frame writes, frame readbacks).
func (d *Device) Stats() (full, partial, readback int) {
	return d.fullLoads, d.partialWrites, d.readbacks
}

// frameOffset returns the byte offset of the (row, col) frame.
func (d *Device) frameOffset(row, col int) int {
	if row < 0 || row >= d.rows || col < 0 || col >= d.cols {
		panic(fmt.Sprintf("fpga: CLB address (%d,%d) out of range", row, col))
	}
	return (row*d.cols + col) * FrameBytes
}

// FullLoad writes a complete bitstream into the configuration memory.
// Per the paper's procedure the device must be switched off first; the
// bitstream CRC is verified before any write.
func (d *Device) FullLoad(bs *Bitstream) error {
	if d.powered {
		return fmt.Errorf("fpga: %s: full reload requires the device switched off", d.name)
	}
	if err := bs.Verify(); err != nil {
		return fmt.Errorf("fpga: %s: %w", d.name, err)
	}
	if bs.Rows != d.rows || bs.Cols != d.cols {
		return fmt.Errorf("fpga: %s: bitstream is for a %dx%d device", d.name, bs.Rows, bs.Cols)
	}
	copy(d.config, bs.Frames)
	d.gen++
	d.loadedDesign = bs.Design
	d.fullLoads++
	return nil
}

// PartialWrite rewrites a single CLB frame; the paper notes Xilinx parts
// allow this "without interrupting operations performed" — the device may
// stay powered.
func (d *Device) PartialWrite(row, col int, frame [FrameBytes]byte) {
	off := d.frameOffset(row, col)
	copy(d.config[off:off+FrameBytes], frame[:])
	d.gen++
	d.partialWrites++
}

// Readback returns a copy of one CLB frame without disturbing operation.
func (d *Device) Readback(row, col int) [FrameBytes]byte {
	off := d.frameOffset(row, col)
	var f [FrameBytes]byte
	copy(f[:], d.config[off:off+FrameBytes])
	d.readbacks++
	return f
}

// ConfigCRC computes the CRC-32 of the entire configuration memory — the
// auto-test value the validation service reports to the NCC over
// telemetry (§3.2).
func (d *Device) ConfigCRC() uint32 { return fec.CRC32IEEE(d.config) }

// FlipConfigBit inverts one bit of configuration memory (bit index over
// the whole memory). It is the fault-injection entry point used by the
// radiation simulator.
func (d *Device) FlipConfigBit(bit int) {
	if bit < 0 || bit >= d.ConfigBits() {
		panic("fpga: config bit index out of range")
	}
	d.config[bit/8] ^= 1 << (bit % 8)
	d.gen++
}

// encodeFrame packs a CLB configuration word.
func encodeFrame(lut uint8, inA, inB int, used bool) [FrameBytes]byte {
	if inA < 0 || inA > 0xFFF || inB < 0 || inB > 0xFFF {
		panic("fpga: net index exceeds 12-bit routing field")
	}
	w := uint32(lut&0xF) | uint32(inA)<<4 | uint32(inB)<<16
	if used {
		w |= 1 << 28
	}
	var f [FrameBytes]byte
	binary.LittleEndian.PutUint32(f[:], w)
	return f
}
