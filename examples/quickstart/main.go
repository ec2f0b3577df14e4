// Quickstart: run a complete scripted mission through the declarative
// scenario runtime — boot a regenerative TDMA payload from a preset
// spec, stream sustained DAMA-scheduled traffic through the closed
// loop (demodulate, decode, switch, re-encode, remodulate, ground
// verify) with a live per-frame observer, and watch the §2.3 decoder
// reconfiguration fire as a scripted mid-run event — the paper's
// software-radio concept in ~60 lines.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() {
	// 1. A scenario is data: start from the swap-under-load preset
	//    (sustained mixed traffic with a conv -> turbo decoder swap
	//    scripted at the halfway frame) and trim it for a quick demo.
	//    The same spec round-trips through JSON — write it to a file,
	//    edit it, and feed it to `trafficsim -scenario file.json`.
	spec, err := scenario.Preset("swap-under-load")
	if err != nil {
		log.Fatal(err)
	}
	spec.Frames = 24
	spec.Events[0].Frame = 12
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q: %d frames, %d terminals, %d scripted event(s)\n",
		spec.Name, spec.Frames, len(spec.Terminals), len(spec.Events))

	// 2. A session executes it. Without an attached control plane the
	//    swap reconfigures the payload directly; build the session via
	//    core.System.NewSession instead to run the full ground procedure
	//    (upload, COPS policy push, five-step reload).
	sess, err := scenario.NewSession(spec,
		scenario.WithObserver(func(st scenario.FrameStats, report func() *traffic.Report) {
			for _, ev := range st.Events {
				fmt.Println("  >>", ev)
			}
			if st.Frame%6 == 0 {
				rep := report()
				fmt.Printf("  frame %2d: %d cells granted, %d packets down, %d bit errors so far\n",
					st.Frame, rep.GrantedCells, rep.DeliveredPackets, rep.UplinkBitErrs+rep.DownlinkBitErrs)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Run to the scripted end (a context cancels cleanly at a frame
	//    boundary — useful when a mission is a service, not a batch).
	rep, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// 4. The loopback contract across the reconfiguration: every
	//    delivered packet bit-identical, decoder hot-swapped under load.
	codec, _ := sess.Payload().Codec()
	fmt.Printf("\ndecoder now %s on the same hardware slot; %d packets delivered, %d bit errors end to end\n",
		codec.Name(), rep.DeliveredPackets, rep.UplinkBitErrs+rep.DownlinkBitErrs)

	// Where next: `trafficsim -list-presets` names the other missions —
	// try the `qos-priority` preset to watch the sharded switching
	// fabric hold EF voice traffic at zero drops through a best-effort
	// flash crowd (strict-priority downlink scheduling with a BE floor;
	// the run report breaks queues, drops and latency down per class).
}
