package obc

import (
	"testing"

	"repro/internal/fpga"
	"repro/internal/sim"
)

func makeBitstream(t *testing.T, name string, rows, cols int) *fpga.Bitstream {
	t.Helper()
	nl := fpga.NewNetlist(name, 4)
	acc := 0
	for i := 1; i < 4; i++ {
		acc = nl.AddGate(fpga.LUTXor, acc, i)
	}
	nl.MarkOutput(acc)
	bs, err := nl.Compile(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func TestMemoryStorePutGetDelete(t *testing.T) {
	m := NewMemoryStore(0)
	if err := m.Put("a.bit", []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	d, ok := m.Get("a.bit")
	if !ok || len(d) != 3 {
		t.Fatal("get")
	}
	if m.UsedBytes() != 3 {
		t.Fatal("bookkeeping")
	}
}

func TestMemoryStoreLRUEviction(t *testing.T) {
	m := NewMemoryStore(100)
	m.Put("a", make([]byte, 40))
	m.Put("b", make([]byte, 40))
	m.Get("a") // refresh a; b becomes LRU
	m.Put("c", make([]byte, 40))
	if _, ok := m.Get("b"); ok {
		t.Fatal("LRU file not evicted")
	}
	_, okA := m.Get("a")
	_, okC := m.Get("c")
	if !okA || !okC {
		t.Fatal("wrong file evicted")
	}
	if m.Evictions != 1 {
		t.Fatalf("evictions %d", m.Evictions)
	}
}

func TestMemoryStoreOversizeRejected(t *testing.T) {
	m := NewMemoryStore(10)
	if err := m.Put("big", make([]byte, 11)); err == nil {
		t.Fatal("oversize must fail")
	}
}

func newTestController(t *testing.T) (*sim.Simulator, *Controller, *fpga.Device) {
	t.Helper()
	s := sim.New()
	c := NewController(s, NewMemoryStore(0))
	d := fpga.NewDevice("demod-fpga", 8, 8)
	// Boot configuration.
	boot := makeBitstream(t, "boot", 8, 8)
	if err := d.FullLoad(boot); err != nil {
		t.Fatal(err)
	}
	d.PowerOn()
	c.AddDevice(d)
	return s, c, d
}

func TestReconfigureHappyPath(t *testing.T) {
	s, c, d := newTestController(t)
	bs := makeBitstream(t, "tdma-demod", 8, 8)
	c.Store().Put("tdma.bit", bs.Marshal())

	var tm []string
	c.Telemetry = func(line string) { tm = append(tm, line) }

	var res Result
	c.Reconfigure("demod-fpga", "tdma.bit", true, func(r Result) { res = r })
	s.Run()

	if !res.OK {
		t.Fatalf("reconfiguration failed: %s", res.Err)
	}
	if d.LoadedDesign() != "tdma-demod" || !d.Powered() {
		t.Fatal("device state after reconfiguration")
	}
	if res.CRC != bs.CRC32() {
		t.Fatal("telemetry CRC mismatch")
	}
	if res.Interruption <= 0 {
		t.Fatal("interruption not measured")
	}
	// Timeline must contain the procedure's steps in order.
	wantSteps := []StepName{StepStage, StepSwitchOff, StepLoad, StepValidate, StepSwitchOn}
	if len(res.Timeline) != len(wantSteps) {
		t.Fatalf("timeline %v", res.Timeline)
	}
	for i, e := range res.Timeline {
		if e.Step != wantSteps[i] {
			t.Fatalf("step %d = %s want %s", i, e.Step, wantSteps[i])
		}
	}
	if len(tm) == 0 {
		t.Fatal("no telemetry emitted")
	}
}

func TestReconfigureInterruptionScalesWithSize(t *testing.T) {
	run := func(rows, cols int) float64 {
		s := sim.New()
		c := NewController(s, NewMemoryStore(0))
		d := fpga.NewDevice("x", rows, cols)
		boot := makeBitstream(t, "boot", rows, cols)
		d.FullLoad(boot)
		d.PowerOn()
		c.AddDevice(d)
		bs := makeBitstream(t, "new", rows, cols)
		c.Store().Put("new.bit", bs.Marshal())
		var res Result
		c.Reconfigure("x", "new.bit", false, func(r Result) { res = r })
		s.Run()
		if !res.OK {
			t.Fatalf("failed: %s", res.Err)
		}
		return res.Interruption
	}
	small := run(8, 8)
	large := run(64, 64)
	if large <= small {
		t.Fatalf("interruption must grow with device size: %g vs %g", small, large)
	}
}

func TestReconfigureMissingFile(t *testing.T) {
	s, c, _ := newTestController(t)
	var res Result
	c.Reconfigure("demod-fpga", "nope.bit", false, func(r Result) { res = r })
	s.Run()
	if res.OK || res.Err == "" {
		t.Fatal("missing file must fail")
	}
}

func TestReconfigureUnknownDevice(t *testing.T) {
	s, c, _ := newTestController(t)
	var res Result
	c.Reconfigure("ghost", "x.bit", false, func(r Result) { res = r })
	s.Run()
	if res.OK {
		t.Fatal("unknown device must fail")
	}
}

func TestReconfigureCorruptBitstreamRollsBack(t *testing.T) {
	s, c, d := newTestController(t)
	bs := makeBitstream(t, "bad-design", 8, 8)
	data := bs.Marshal()
	data[20] ^= 0xFF // corrupt in storage; Unmarshal will reject
	c.Store().Put("bad.bit", data)

	var res Result
	c.Reconfigure("demod-fpga", "bad.bit", true, func(r Result) { res = r })
	s.Run()
	if res.OK {
		t.Fatal("corrupt bitstream must fail")
	}
	// Device must still run the boot design (nothing was loaded).
	if d.LoadedDesign() != "boot" || !d.Powered() {
		t.Fatal("device must remain on the previous design")
	}
}

func TestReconfigureWithoutRollbackLeavesServiceDown(t *testing.T) {
	// Force a failure *after* switch-off by staging a bitstream for the
	// wrong geometry (FullLoad rejects it).
	s, c, d := newTestController(t)
	bs := makeBitstream(t, "wrong-geom", 4, 4)
	c.Store().Put("wrong.bit", bs.Marshal())
	var res Result
	c.Reconfigure("demod-fpga", "wrong.bit", false, func(r Result) { res = r })
	s.Run()
	if res.OK {
		t.Fatal("must fail")
	}
	if d.Powered() {
		t.Fatal("without rollback the device stays down — the §3.2 risk the validation service exists for")
	}
}

func TestReconfigureRollbackRestoresService(t *testing.T) {
	s, c, d := newTestController(t)
	bs := makeBitstream(t, "wrong-geom", 4, 4)
	c.Store().Put("wrong.bit", bs.Marshal())
	var res Result
	c.Reconfigure("demod-fpga", "wrong.bit", true, func(r Result) { res = r })
	s.Run()
	if res.OK || !res.RolledBack {
		t.Fatalf("expected rollback: %+v", res)
	}
	if !d.Powered() || d.LoadedDesign() != "boot" {
		t.Fatal("rollback must restore the previous design and power")
	}
}

func TestValidateService(t *testing.T) {
	_, c, d := newTestController(t)
	var tm []string
	c.Telemetry = func(l string) { tm = append(tm, l) }
	crc, err := c.Validate("demod-fpga")
	if err != nil {
		t.Fatal(err)
	}
	if crc != d.ConfigCRC() {
		t.Fatal("validation CRC")
	}
	if len(tm) != 1 {
		t.Fatal("validation must emit telemetry")
	}
	if _, err := c.Validate("ghost"); err == nil {
		t.Fatal("unknown device must error")
	}
}
