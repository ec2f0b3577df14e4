package scenario

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// ledgerObserver holds every frame's report() snapshot to the packet
// ledger: each requested cell is granted, denied or throttled (run total
// and every population row), each granted waveform cell became one
// uplink burst, and each packet the fabric accepted was delivered,
// discarded at re-encode or is still queued — per class, against the
// session's live fabric.
func ledgerObserver(t *testing.T, sess *Session) Observer {
	fab := sess.Payload().Switch()
	return func(st FrameStats, report func() *traffic.Report) {
		if t.Failed() {
			return // the first unbalanced frame says it all
		}
		r := report()
		if r.OfferedCells != r.GrantedCells+r.DeniedCells+r.ThrottledCells {
			t.Errorf("frame %d: offered %d != granted %d + denied %d + throttled %d",
				st.Frame, r.OfferedCells, r.GrantedCells, r.DeniedCells, r.ThrottledCells)
		}
		for _, p := range r.PerPopulation {
			if p.OfferedCells != p.GrantedCells+p.DeniedCells+p.ThrottledCells {
				t.Errorf("frame %d pop %s: offered %d != granted %d + denied %d + throttled %d",
					st.Frame, p.Name, p.OfferedCells, p.GrantedCells, p.DeniedCells, p.ThrottledCells)
			}
		}
		granted := 0
		for _, ts := range r.PerTerminal {
			granted += ts.GrantedCells
		}
		if r.UplinkBursts != granted {
			t.Errorf("frame %d: %d uplink bursts, terminals were granted %d cells", st.Frame, r.UplinkBursts, granted)
		}
		for c, cs := range r.PerClass {
			queued := 0
			for b := 0; b < fab.NumBeams(); b++ {
				queued += fab.ClassQueueDepth(b, switchfab.Class(c))
			}
			if cs.RoutedPackets != cs.DeliveredPackets+cs.DroppedReencode+queued {
				t.Errorf("frame %d class %s: routed %d != delivered %d + re-encode drops %d + queued %d",
					st.Frame, cs.Class, cs.RoutedPackets, cs.DeliveredPackets, cs.DroppedReencode, queued)
			}
		}
	}
}

// Every preset, full length, every frame, on both sides of the engine's
// step-path selector.
func TestLedgerBalancesEveryFrame(t *testing.T) {
	for _, name := range PresetNames() {
		t.Run(name, func(t *testing.T) {
			for _, procs := range []int{1, 2} {
				sp, err := Preset(name)
				if err != nil {
					t.Fatal(err)
				}
				prev := runtime.GOMAXPROCS(procs)
				sess, err := NewSession(sp)
				if err == nil {
					sess.AddObserver(ledgerObserver(t, sess))
					_, err = sess.Run(context.Background())
				}
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if t.Failed() {
					t.Fatalf("GOMAXPROCS %d: ledger out of balance", procs)
				}
			}
		})
	}
}
