package traffic_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/scenario"
	"repro/internal/traffic"
)

// The ground checks exactly the bursts the downlink grid carries. On the
// megapop preset an aggregate packet spends a slot but leaves its cell
// idle, so idle cells sit between the tracers' bursts; every frame, the
// bursts its verify checks must number the frame's delivered packets
// less the aggregate ones, and none may be lost or in error, at one
// worker and at two.
func TestGroundChecksEveryGridBurst(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		sp, err := scenario.Preset("megapop")
		if err != nil {
			t.Fatal(err)
		}
		sess, err := scenario.NewSession(sp)
		if err != nil {
			t.Fatal(err)
		}
		eng := sess.Engine()
		var checks atomic.Int64
		traffic.WrapGroundCheck(eng, func(check func(int)) func(int) {
			return func(i int) { check(i); checks.Add(1) }
		})
		var delivered, aggregate, mixed int
		for f := 0; f < sp.Frames; f++ {
			if _, err := sess.Step(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
			rep := eng.Report()
			agg := 0
			for _, ps := range rep.PerPopulation {
				agg += ps.DeliveredPackets
			}
			sent := rep.DeliveredPackets - delivered - (agg - aggregate)
			if got := int(checks.Swap(0)); got != sent {
				t.Fatalf("GOMAXPROCS %d frame %d: %d bursts checked, %d sent", procs, f, got, sent)
			}
			if sent > 0 && agg > aggregate {
				mixed++
			}
			delivered, aggregate = rep.DeliveredPackets, agg
		}
		rep := eng.Report()
		if rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 {
			t.Fatalf("GOMAXPROCS %d: %d bursts lost and %d bit errors on verify", procs, rep.DownlinkLost, rep.DownlinkBitErrs)
		}
		if mixed == 0 {
			t.Fatalf("GOMAXPROCS %d: no frame sent both aggregate and traced packets", procs)
		}
		t.Logf("GOMAXPROCS %d: %d of %d frames sent both", procs, mixed, sp.Frames)
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
