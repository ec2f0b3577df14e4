package experiments

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/fpga"
	"repro/internal/ncc"
	"repro/internal/payload"
	"repro/internal/sim"
	"repro/internal/tmtc"
)

// E4Result carries the reconfiguration-timeline outputs.
type E4Result struct {
	Table   *Table
	Reports []core.ReconfigReport
}

// E4Timeline reproduces the §3.1 procedure end to end for both transfer
// protocols and with/without the on-board bitstream library, reporting
// the phase breakdown and total service interruption.
func E4Timeline(seed int64) *E4Result {
	res := &E4Result{}
	t := &Table{
		Title:   "E4 / sec 3.1: ground-initiated reconfiguration timeline",
		Columns: []string{"upload (s)", "command+reload (s)", "total (s)"},
	}

	for _, proto := range []ncc.Protocol{ncc.ProtoTFTP, ncc.ProtoSCPSFP} {
		cfg := core.DefaultSystemConfig()
		cfg.Seed = seed
		sys := boot(cfg)
		bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
		rep := sys.GroundReconfigure("demod-fpga", bs, proto, 16, true)
		res.Reports = append(res.Reports, rep)
		t.Rows = append(t.Rows, Row{f("upload via %s (%d B bitstream)", proto, rep.BitstreamBytes),
			[]string{f("%.2f", rep.UploadTime()), f("%.2f", rep.CommandTime()), f("%.2f", rep.Total())}})
	}

	// On-board library: the file is already staged, so the "upload"
	// phase disappears (§3.2's library trade-off).
	cfg := core.DefaultSystemConfig()
	cfg.Seed = seed
	sys := boot(cfg)
	bs := sys.Payload.DemodBitstreams(payload.ModeTDMA)["demod-fpga"]
	sys.Controller.Store().Put(bs.Design+".bit", bs.Marshal())
	rep := sys.LibraryReconfigure("demod-fpga", bs.Design+".bit", true)
	res.Reports = append(res.Reports, rep)
	t.Rows = append(t.Rows, Row{"from on-board library (no upload)",
		[]string{"0.00", f("%.2f", rep.CommandTime()), f("%.2f", rep.Total())}})

	t.Notes = append(t.Notes,
		"five-step procedure: stage, switch off, JTAG load, CRC telemetry, switch on (sec 3.1)",
		"the on-board library removes the ground transfer at the cost of on-board memory (sec 3.2)")
	res.Table = t
	return res
}

// E5Protocols reproduces the §3.3 protocol comparison: transfer time of
// configuration files over the GEO link for TFTP (lock-step), SCPS-FP
// over TCP with small and large (RFC 2488) windows, and the raw TC
// controlled mode with the same windows — on a clean link and, for each
// size, on a link with bit errors (the end-to-end ARQ paths recover; the
// timings show the cost).
func E5Protocols(fileSizes []int, seed int64) *Table {
	t := &Table{
		Title:   "E5 / sec 3.3, Fig 4: file transfer over GEO (seconds)",
		Columns: []string{"TFTP", "SCPS-FP w=4", "SCPS-FP w=32", "TC AD w=8"},
	}

	for _, ber := range []float64{0, 1e-6} {
		for _, size := range fileSizes {
			data := make([]byte, size)
			rand.New(rand.NewSource(seed)).Read(data)

			tftpT := measureUpload(size, ncc.ProtoTFTP, 0, ber, seed)
			scps4 := measureUpload(size, ncc.ProtoSCPSFP, 4, ber, seed)
			scps32 := measureUpload(size, ncc.ProtoSCPSFP, 32, ber, seed)
			tc := measureTCControlled(data, 8, ber, seed)

			label := f("%d kB file", size/1024)
			if ber > 0 {
				label += f(", BER %.0e", ber)
			}
			fmtT := func(v float64) string {
				if v < 0 {
					return "-"
				}
				return f("%.1f", v)
			}
			t.Rows = append(t.Rows, Row{label, []string{
				fmtT(tftpT), fmtT(scps4), fmtT(scps32), fmtT(tc)}})
		}
	}
	t.Notes = append(t.Notes,
		"TFTP: 512-byte blocks in lock-step -> ~1 block per 0.26 s RTT ('only for small transfer')",
		"SCPS-FP/FTP windows keep the pipe full; RFC 2488 motivates the larger window",
		"TC AD is the controlled-mode telecommand path with go-back-N")
	return t
}

// measureUpload times an NCC upload of `size` bytes through the full
// stack (IP over BD frames over the GEO link).
func measureUpload(size int, proto ncc.Protocol, window int, ber float64, seed int64) float64 {
	cfg := core.DefaultSystemConfig()
	cfg.Seed = seed
	cfg.BER = ber
	sys := boot(cfg)
	data := make([]byte, size)
	rand.New(rand.NewSource(seed + 9)).Read(data)
	sys.NCC.Catalog("file.bin", data)
	start := sys.Sim.Now()
	var done float64 = -1
	sys.NCC.Upload("file.bin", proto, window, func(err error) {
		if err == nil {
			done = sys.Sim.Now()
		}
	})
	sys.Run()
	if done < 0 {
		return -1
	}
	return done - start
}

// measureTCControlled times the same payload over the raw controlled-mode
// telecommand channel.
func measureTCControlled(data []byte, window int, ber float64, seed int64) float64 {
	s := sim.New()
	s.MaxEvents = 10_000_000
	link := tmtc.NewGEOLink(s, 2_000_000, 512_000, ber, seed)
	gm, sm := tmtc.NewFrameMux(), tmtc.NewFrameMux()
	gm.Attach(link.End(tmtc.Ground))
	sm.Attach(link.End(tmtc.Space))
	ch := tmtc.NewChannel(s, link, gm, sm, 7, window, 1.5)
	var done float64 = -1
	ch.FOP.Done = func() { done = s.Now() }
	ch.FOP.SendData(data)
	s.Run()
	return done
}

// E7Result carries the partitioning study outputs.
type E7Result struct {
	Table *Table
	// ServicesInterrupted per strategy for assertions.
	ServicesInterrupted map[payload.Partitioning]int
	// Interruption seconds per strategy.
	Interruption map[payload.Partitioning]float64
}

// E7Partitioning reproduces the §4.4 study: for each chip-partitioning
// strategy, reconfigure the DEMOD function and measure what is reloaded,
// which services go down, and for how long.
func E7Partitioning(seed int64) *E7Result {
	res := &E7Result{
		ServicesInterrupted: make(map[payload.Partitioning]int),
		Interruption:        make(map[payload.Partitioning]float64),
	}
	t := &Table{
		Title:   "E7 / sec 4.4: payload partitioning vs reconfiguration scope",
		Columns: []string{"devices reloaded", "reload bytes", "services down", "interruption (s)"},
	}
	for _, strat := range []payload.Partitioning{payload.SingleChip, payload.PerEquipment, payload.PerFunction} {
		cfg := core.DefaultSystemConfig()
		cfg.Seed = seed
		cfg.Payload.Strategy = strat
		sys := boot(cfg)
		devices, reloadBytes, interrupted := sys.Payload.Chipset().ReloadPlan(payload.FuncDemod)

		// Execute the migration and accumulate measured interruption.
		var interruption float64
		for _, rep := range sys.MigrateWaveform(payload.ModeTDMA, ncc.ProtoSCPSFP, 16) {
			if !rep.OK {
				panic("E7 migration failed: " + rep.FailureReason)
			}
		}
		// Interruption is measured on the controller timeline: reload
		// time per device (JTAG) plus switching.
		for _, dn := range devices {
			d, _ := sys.Payload.Chipset().Device(dn)
			interruption += float64(d.CLBs()*fpga.FrameBytes*8)/float64(10_000_000)*2 + 0.1
		}
		res.ServicesInterrupted[strat] = len(interrupted)
		res.Interruption[strat] = interruption
		t.Rows = append(t.Rows, Row{strat.String(), []string{
			f("%d", len(devices)), f("%d", reloadBytes), f("%d", len(interrupted)), f("%.3f", interruption)}})
	}
	t.Notes = append(t.Notes,
		"single chip: any swap takes the whole payload down ('only a global reload is possible')",
		"finer partitioning shrinks the blast radius but fixes inter-chip interfaces (sec 4.4)")
	res.Table = t
	return res
}
