// Command nccctl drives a ground-initiated reconfiguration end to end:
// it assembles the full system (GEO link, protocol stack, on-board
// controller, payload), uploads a waveform or decoder bitstream with the
// selected protocol, pushes the COPS policy, and prints the resulting
// timeline and telemetry — the paper's §3 scenario from the operator's
// seat.
//
// Usage:
//
//	nccctl -action waveform -target tdma -proto scps-fp -window 32
//	nccctl -action decoder -target turbo-r1/3 -ipsec -ber 1e-7 -window 32
//	nccctl -action waveform -target cdma -proto tftp
//
// The exit status is 1 when a value is refused or any reconfiguration
// report is not OK.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ncc"
	"repro/internal/payload"
	"repro/internal/scenario"
)

func main() {
	action := flag.String("action", "waveform", "waveform or decoder")
	target := flag.String("target", "tdma", "waveform (cdma|tdma) or codec name")
	protoName := flag.String("proto", "scps-fp", "upload protocol: tftp or scps-fp")
	window := flag.Int("window", 16, "TCP window for scps-fp (RFC 2488 knob)")
	ber := flag.Float64("ber", 0, "space link bit error rate")
	ipsec := flag.Bool("ipsec", false, "enable the IPsec (ESP) layer")
	flag.Parse()

	var proto ncc.Protocol
	switch *protoName {
	case "scps-fp":
		proto = ncc.ProtoSCPSFP
	case "tftp":
		proto = ncc.ProtoTFTP
	default:
		log.Fatalf("unknown protocol %q (tftp or scps-fp)", *protoName)
	}
	var mode payload.WaveformMode
	switch *action {
	case "waveform":
		var err error
		if mode, err = scenario.ParseWaveform(*target); err != nil {
			log.Fatal(err)
		}
	case "decoder":
		if _, err := payload.CodecForDesign(*target); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown action %q (waveform or decoder)", *action)
	}

	cfg := core.DefaultSystemConfig()
	cfg.BER = *ber
	cfg.IPsec = *ipsec
	sys, err := core.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sys.RunUntil(2) // COPS session establishment

	var reports []core.ReconfigReport
	if *action == "waveform" {
		reports = sys.MigrateWaveform(mode, proto, *window)
	} else {
		reports = sys.SwapDecoder(*target, proto, *window)
	}

	failed := false
	fmt.Println("reconfiguration reports:")
	for _, r := range reports {
		fmt.Println("  " + r.String())
		failed = failed || !r.OK
	}
	fmt.Println("telemetry:")
	for _, l := range sys.Telemetry {
		fmt.Println("  TM " + l)
	}
	if *action == "waveform" {
		fmt.Printf("payload waveform now: %s\n", sys.Payload.Mode())
	} else if c, err := sys.Payload.Codec(); err != nil {
		fmt.Printf("payload decoder now: none (%v)\n", err)
	} else {
		fmt.Printf("payload decoder now: %s\n", c.Name())
	}
	if failed {
		log.Fatal("nccctl: a reconfiguration failed")
	}
}
