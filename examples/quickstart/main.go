// Quickstart: the swap-under-load preset through the scenario runtime —
// sustained DAMA traffic through the closed regenerative loop, with the
// §2.3 conv -> turbo decoder swap scripted mid-run. `nccctl` runs the
// ground side of a reconfiguration, `trafficsim` every preset.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

func main() {
	spec, err := scenario.Preset("swap-under-load")
	if err != nil {
		log.Fatal(err)
	}
	spec.Frames, spec.Events[0].Frame = 24, 12 // trimmed for a quick demo
	sess, err := scenario.NewSession(spec, scenario.WithObserver(func(st scenario.FrameStats, report func() *traffic.Report) {
		for _, ev := range st.Events {
			fmt.Println("  >>", ev)
		}
		if st.Frame%6 == 0 {
			rep := report()
			fmt.Printf("  frame %2d: %d cells granted, %d packets down, %d bit errors\n",
				st.Frame, rep.GrantedCells, rep.DeliveredPackets, rep.UplinkBitErrs+rep.DownlinkBitErrs)
		}
	}))
	if err != nil {
		log.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d packets delivered, %d bit errors end to end\n", rep.DeliveredPackets, rep.UplinkBitErrs+rep.DownlinkBitErrs)
}
