// Package core is the top of the reproduction: the generic software-radio
// satellite system the paper argues for. It assembles the full stack —
// GEO TC/TM link (N1), IP/UDP/TCP(+IPsec) data system (N2), TFTP/SCPS-FP
// and COPS reconfiguration system (N3), the on-board processor controller
// with its bitstream memory, and the regenerative payload whose digital
// functions live on simulated FPGAs — and exposes the ground-initiated
// reconfiguration scenario end to end: upload, policy push, five-step
// reload, CRC telemetry, rollback.
package core

import (
	"fmt"
	"strings"

	"repro/internal/fpga"
	"repro/internal/ftp"
	"repro/internal/ipstack"
	"repro/internal/ncc"
	"repro/internal/obc"
	"repro/internal/payload"
	"repro/internal/sim"
	"repro/internal/tmtc"
)

// Virtual channel assignments on the TC/TM link.
const (
	// VCControl carries raw controlled-mode telecommands.
	VCControl byte = 7
	// VCIP carries the encapsulated IP data system (Fig 4: the IP stack
	// replaces the data management service).
	VCIP byte = 9
)

// Well-known addresses of the experiments ("IP address are reserved for
// satellite use").
var (
	AddrNCC       = ipstack.AddrOf(10, 42, 0, 1)
	AddrSatellite = ipstack.AddrOf(10, 42, 0, 2)
)

// storedNotifyPort is the ground UDP port receiving "file stored"
// notifications from the satellite.
const storedNotifyPort = 32010

// SystemConfig configures the assembled system.
type SystemConfig struct {
	// UplinkBps / DownlinkBps are the TC/TM data rates.
	UplinkBps   float64
	DownlinkBps float64
	// BER is the space-link bit error rate.
	BER float64
	// Seed drives every stochastic element.
	Seed int64
	// Payload configures the regenerative payload.
	Payload payload.Config
	// MemoryCapacity bounds the on-board bitstream memory (0 = no
	// library limit).
	MemoryCapacity int
	// IPsec enables the ESP layer on the IP path.
	IPsec bool
}

// DefaultSystemConfig returns the experiment defaults: 2 Mbps uplink,
// 512 kbps telemetry downlink, clean link.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		UplinkBps:   2_000_000,
		DownlinkBps: 512_000,
		Seed:        1,
		Payload:     payload.DefaultConfig(),
	}
}

// System is the assembled ground + space segment.
type System struct {
	Sim  *sim.Simulator
	Link *tmtc.Link

	NCC *ncc.NCC // the ground segment

	// Space segment.
	Controller *obc.Controller
	Payload    *payload.Payload
	TFTPServer *ftp.TFTPServer
	FileServer *ftp.FileServer
	PEP        *ftp.PEP

	// Telemetry lines emitted by the on-board controller.
	Telemetry []string
	// TMLog collects telemetry lines produced by the Fig 1 telecommand
	// interpreter on the platform (space side).
	TMLog []string
	// GroundTMLog collects telemetry frames received at the NCC on the
	// control virtual channel.
	GroundTMLog []string

	// Control is the raw telecommand channel of Fig 1.
	Control *tmtc.Channel
}

// NewSystem assembles and wires the whole stack.
func NewSystem(cfg SystemConfig) (*System, error) {
	s := sim.New()
	s.MaxEvents = 50_000_000
	link := tmtc.NewGEOLink(s, cfg.UplinkBps, cfg.DownlinkBps, cfg.BER, cfg.Seed)

	groundMux, spaceMux := tmtc.NewFrameMux(), tmtc.NewFrameMux()
	groundMux.Attach(link.End(tmtc.Ground))
	spaceMux.Attach(link.End(tmtc.Space))

	control := tmtc.NewChannel(s, link, groundMux, spaceMux, VCControl, 8, 1.5)

	// IP over BD frames on VCIP, both directions.
	ipIf := func(side tmtc.Side) *ipstack.Interface {
		return &ipstack.Interface{SendFunc: func(data []byte) {
			fr := &tmtc.Frame{VC: VCIP, Type: tmtc.FrameBD, Payload: data}
			link.End(side).Send(fr.Marshal())
		}}
	}
	groundIf, satIf := ipIf(tmtc.Ground), ipIf(tmtc.Space)
	groundMux.Register(VCIP, func(fr *tmtc.Frame) { groundIf.Deliver(fr.Payload) })
	spaceMux.Register(VCIP, func(fr *tmtc.Frame) { satIf.Deliver(fr.Payload) })

	groundNode := ipstack.NewNode(s, AddrNCC, groundIf)
	satNode := ipstack.NewNode(s, AddrSatellite, satIf)

	if cfg.IPsec {
		saG, saS, err := ipstack.PairedSAs(
			[]byte("reconfig-aes-key"), []byte("reconfig-mac-key"))
		if err != nil {
			return nil, err
		}
		groundNode.EnableIPsec(saG)
		satNode.EnableIPsec(saS)
	}

	// Space segment: controller, memory, payload, file servers, PEP.
	pl, err := payload.New(cfg.Payload)
	if err != nil {
		return nil, err
	}
	store := obc.NewMemoryStore(cfg.MemoryCapacity)
	controller := obc.NewController(s, store)
	for _, d := range pl.Chipset().Devices() {
		controller.AddDevice(d)
	}

	sys := &System{
		Sim:        s,
		Link:       link,
		Controller: controller,
		Payload:    pl,
		Control:    control,
	}
	controller.Telemetry = func(line string) { sys.Telemetry = append(sys.Telemetry, line) }

	// File ingestion: both servers stage files into on-board memory and
	// notify the ground.
	stage := func(name string, data []byte) {
		store.Put(name, data)
		satNode.SendUDP(AddrNCC, storedNotifyPort, storedNotifyPort, []byte("stored:"+name))
	}
	sys.TFTPServer = ftp.NewTFTPServer(satNode)
	sys.TFTPServer.OnStored = stage
	sys.FileServer = ftp.NewFileServer(satNode)
	sys.FileServer.OnStored = stage

	// Ground segment.
	n := ncc.New(s, groundNode, AddrSatellite)
	groundNode.BindUDP(storedNotifyPort, func(_ ipstack.Addr, _ uint16, data []byte) {
		if name, ok := strings.CutPrefix(string(data), "stored:"); ok && name != "" {
			n.ConfirmStored(name)
		}
	})
	sys.NCC = n

	// On-board PEP executing reconfiguration policies.
	sys.PEP = ftp.NewPEP(satNode, AddrNCC, 33000)
	sys.PEP.OnDecision = func(pol ftp.Policy) {
		controller.Reconfigure(pol.Device, pol.Design, pol.Rollback, func(res obc.Result) {
			status := "fail"
			if res.OK {
				status = "ok"
				// Record the new golden configuration for scrubbing and
				// health checks.
				if d, found := pl.Chipset().Device(pol.Device); found {
					pl.Chipset().SetGolden(pol.Device, fpga.Snapshot(d, d.LoadedDesign()))
				}
			}
			sys.PEP.Report(fmt.Sprintf("%s:%s:%s:crc=%08x", status, pol.Device, res.Design, res.CRC))
		})
	}
	// Establish the COPS connection.
	sys.PEP.Request("boot")

	// Fig 1 telecommand interpreter on the platform, with TM capture at
	// the ground station (BD frames share the control virtual channel
	// with CLCWs).
	sys.wireTelecommands()
	groundMux.Register(VCControl, func(fr *tmtc.Frame) {
		if fr.Type == tmtc.FrameBD {
			sys.GroundTMLog = append(sys.GroundTMLog, string(fr.Payload))
			return
		}
		control.RouteCLCW(fr)
	})

	return sys, nil
}

// Run drains the event queue.
func (sys *System) Run() { sys.Sim.Run() }

// RunUntil advances the clock to t.
func (sys *System) RunUntil(t float64) { sys.Sim.RunUntil(t) }
