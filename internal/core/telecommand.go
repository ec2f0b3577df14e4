package core

import (
	"fmt"
	"strings"

	"repro/internal/tmtc"
)

// The platform software of Fig 1: it interprets telecommands arriving on
// the control virtual channel and answers over the telemetry downlink.
// This is the low-level path that exists besides the IP-based
// reconfiguration system — used for housekeeping commands such as
// on-demand validation (§3.2) and power control.
//
// Command grammar (ASCII payloads on VCControl):
//
//	validate <device>       -> TM "crc <device> <hex>"
//	power <device> on|off   -> TM "power <device> ok|err"
//	ping                    -> TM "pong"

// wireTelecommands attaches the interpreter to the control channel and
// returns nothing; TM responses are appended to sys.TMLog and also sent
// as BD frames on the control VC toward the ground.
func (sys *System) wireTelecommands() {
	send := func(line string) {
		sys.TMLog = append(sys.TMLog, line)
		fr := &tmtc.Frame{VC: VCControl, Type: tmtc.FrameBD, Payload: []byte(line)}
		sys.Link.End(tmtc.Space).Send(fr.Marshal())
	}
	handle := func(data []byte) {
		fields := strings.Fields(string(data))
		if len(fields) == 0 {
			return
		}
		switch fields[0] {
		case "ping":
			send("pong")
		case "validate":
			if len(fields) != 2 {
				send("err validate")
				return
			}
			crc, err := sys.Controller.Validate(fields[1])
			if err != nil {
				send("err validate " + fields[1])
				return
			}
			send(fmt.Sprintf("crc %s %08x", fields[1], crc))
		case "power":
			if len(fields) != 3 {
				send("err power")
				return
			}
			md, ok := sys.Controller.Device(fields[1])
			if !ok {
				send("err power " + fields[1])
				return
			}
			switch fields[2] {
			case "on":
				md.Device.PowerOn()
			case "off":
				md.Device.PowerOff()
			default:
				send("err power " + fields[1])
				return
			}
			send("power " + fields[1] + " ok")
		default:
			send("err unknown-command")
		}
	}
	sys.Control.FARM.Deliver = handle
	sys.Control.FARM.DeliverExpress = handle
}
