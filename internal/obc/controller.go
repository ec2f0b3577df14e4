package obc

import (
	"errors"
	"fmt"

	"repro/internal/fpga"
	"repro/internal/sim"
)

// JTAGRateBps is the configuration-port throughput used to model the
// "load of the new configuration on the FPGA through a specific interface
// (e.g. JTAG)" step. 10 Mbit/s is representative of the era's config
// interfaces.
const JTAGRateBps = 10_000_000

// SwitchTime is the modelled time to switch an FPGA (and its services)
// off or on, seconds.
const SwitchTime = 0.05

// StepName labels the phases of the §3.1 reconfiguration procedure.
type StepName string

// Procedure steps, in order.
const (
	StepStage     StepName = "load binary into on-board memory"
	StepSwitchOff StepName = "switch off FPGA and services"
	StepLoad      StepName = "load configuration via JTAG"
	StepValidate  StepName = "CRC auto-test and telemetry"
	StepSwitchOn  StepName = "switch on FPGA and services"
	StepRollback  StepName = "rollback to previous configuration"
)

// TimelineEntry records one executed step.
type TimelineEntry struct {
	Step     StepName
	Start    float64
	Duration float64
}

// Result reports a completed reconfiguration.
type Result struct {
	Device   string
	Design   string
	OK       bool
	CRC      uint32 // configuration CRC reported over telemetry
	Err      string
	Timeline []TimelineEntry
	// Interruption is the service outage: switch-off to switch-on.
	Interruption float64
	RolledBack   bool
}

// ManagedDevice is an FPGA under the controller.
type ManagedDevice struct {
	Device *fpga.Device
}

// Controller is the on-board processor controller.
type Controller struct {
	s       *sim.Simulator
	store   *MemoryStore
	devices map[string]*ManagedDevice

	// Telemetry, if set, receives one line per significant event — the
	// TM channel toward the NCC.
	Telemetry func(line string)
}

// NewController creates a controller over the given memory store.
func NewController(s *sim.Simulator, store *MemoryStore) *Controller {
	return &Controller{s: s, store: store, devices: make(map[string]*ManagedDevice)}
}

// Store exposes the on-board memory (the TFTP/file servers write here).
func (c *Controller) Store() *MemoryStore { return c.store }

// AddDevice registers an FPGA under the controller's management.
func (c *Controller) AddDevice(d *fpga.Device) {
	c.devices[d.Name()] = &ManagedDevice{Device: d}
}

// Device returns a managed device.
func (c *Controller) Device(name string) (*ManagedDevice, bool) {
	md, ok := c.devices[name]
	return md, ok
}

func (c *Controller) tm(format string, args ...interface{}) {
	if c.Telemetry != nil {
		c.Telemetry(fmt.Sprintf(format, args...))
	}
}

// Reconfigure executes the full §3.1 procedure asynchronously on the
// simulator: parse the staged file, switch the FPGA off, load through the
// config port, CRC auto-test (validation service), switch back on. On a
// CRC mismatch with rollback enabled, the previous configuration is
// restored. done receives the result.
func (c *Controller) Reconfigure(deviceName, fileName string, rollback bool, done func(Result)) {
	res := Result{Device: deviceName}
	md, ok := c.devices[deviceName]
	if !ok {
		res.Err = "unknown device"
		done(res)
		return
	}
	start := c.s.Now()
	data, ok := c.store.Get(fileName)
	if !ok {
		res.Err = "file not staged in on-board memory"
		c.tm("reconfig %s: missing file %s", deviceName, fileName)
		done(res)
		return
	}
	bs, err := fpga.Unmarshal(data)
	if err != nil {
		res.Err = err.Error()
		c.tm("reconfig %s: corrupt bitstream: %v", deviceName, err)
		done(res)
		return
	}
	res.Design = bs.Design
	res.Timeline = append(res.Timeline, TimelineEntry{Step: StepStage, Start: start, Duration: 0})

	// Capture rollback state before touching the device.
	prev := fpga.Snapshot(md.Device, md.Device.LoadedDesign())

	// Step: switch off.
	offStart := c.s.Now()
	c.s.Schedule(SwitchTime, func() {
		md.Device.PowerOff()
		res.Timeline = append(res.Timeline, TimelineEntry{Step: StepSwitchOff, Start: offStart, Duration: SwitchTime})

		// Step: JTAG load.
		loadStart := c.s.Now()
		loadTime := float64(len(bs.Frames)*8) / JTAGRateBps
		c.s.Schedule(loadTime, func() {
			err := md.Device.FullLoad(bs)
			res.Timeline = append(res.Timeline, TimelineEntry{Step: StepLoad, Start: loadStart, Duration: loadTime})
			if err != nil {
				res.Err = err.Error()
				c.tm("reconfig %s: load failed: %v", deviceName, err)
				c.finish(md, prev, res, rollback, done)
				return
			}

			// Step: validation (CRC auto-test, reported over TM).
			valStart := c.s.Now()
			valTime := float64(len(bs.Frames)*8) / JTAGRateBps // readback pass
			c.s.Schedule(valTime, func() {
				res.CRC = md.Device.ConfigCRC()
				res.Timeline = append(res.Timeline, TimelineEntry{Step: StepValidate, Start: valStart, Duration: valTime})
				ok := res.CRC == bs.CRC32()
				c.tm("reconfig %s: design=%s crc=%08x valid=%v", deviceName, bs.Design, res.CRC, ok)
				if !ok {
					res.Err = "configuration CRC mismatch"
					c.finish(md, prev, res, rollback, done)
					return
				}

				// Step: switch on.
				onStart := c.s.Now()
				c.s.Schedule(SwitchTime, func() {
					md.Device.PowerOn()
					res.Timeline = append(res.Timeline, TimelineEntry{Step: StepSwitchOn, Start: onStart, Duration: SwitchTime})
					res.OK = true
					res.Interruption = c.s.Now() - offStart
					// §3.2 step 4: unload the binary from memory unless
					// the library keeps it.
					done(res)
				})
			})
		})
	})
}

// finish handles the failure path, optionally rolling back.
func (c *Controller) finish(md *ManagedDevice, prev *fpga.Bitstream, res Result, rollback bool, done func(Result)) {
	if !rollback {
		// Leave the device off; services stay down.
		done(res)
		return
	}
	rbStart := c.s.Now()
	rbTime := float64(len(prev.Frames)*8) / JTAGRateBps
	c.s.Schedule(rbTime, func() {
		md.Device.PowerOff() // ensure off before reload
		if err := md.Device.FullLoad(prev); err != nil {
			res.Err += "; rollback failed: " + err.Error()
			done(res)
			return
		}
		md.Device.PowerOn()
		res.RolledBack = true
		res.Timeline = append(res.Timeline, TimelineEntry{Step: StepRollback, Start: rbStart, Duration: rbTime})
		c.tm("reconfig %s: rolled back to %s", md.Device.Name(), prev.Design)
		done(res)
	})
}

// Validate runs the standalone validation service (§3.2): CRC the current
// configuration of a device and report it over telemetry.
func (c *Controller) Validate(deviceName string) (uint32, error) {
	md, ok := c.devices[deviceName]
	if !ok {
		return 0, errors.New("obc: unknown device")
	}
	crc := md.Device.ConfigCRC()
	c.tm("validate %s: crc=%08x design=%s", deviceName, crc, md.Device.LoadedDesign())
	return crc, nil
}
