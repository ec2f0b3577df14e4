package scenario

import (
	"context"
	"testing"

	"repro/internal/switchfab"
	"repro/internal/traffic"
)

// pr4Baseline pins the report counters the PR 4 engine (bounded
// per-beam qpkt queues drained in arrival order) produced for the
// registered presets, captured before the switching-fabric refactor.
// A FIFO-scheduled single-class run over the fabric must reproduce
// every one of them bit for bit — the acceptance contract of the
// fabric PR. The four presets cover the queue dynamics: clean and
// impaired (no drops), hotspot (drop-tail overload with a mid-run
// join/leave), backpressure (admission control + scripted queue
// deepening).
var pr4Baseline = map[string]traffic.Report{
	"clean": {
		Frames: 40, OfferedCells: 218, GrantedCells: 218,
		UplinkBursts: 218, DeliveredPackets: 218, DeliveredBits: 41856,
		LatencySum: 35, LatencyMax: 1, QueueHighWater: []int{8, 2, 2},
	},
	"impaired": {
		Frames: 40, OfferedCells: 240, GrantedCells: 240,
		UplinkBursts: 240, DeliveredPackets: 240, DeliveredBits: 46080,
		QueueHighWater: []int{2, 2, 2},
	},
	"hotspot": {
		Frames: 40, OfferedCells: 273, GrantedCells: 249, DeniedCells: 24,
		UplinkBursts: 249, DeliveredPackets: 161, DeliveredBits: 30912,
		DroppedQueue: 88, QueueHighWater: []int{4, 1, 0},
	},
	"backpressure": {
		Frames: 40, OfferedCells: 273, GrantedCells: 169, ThrottledCells: 104,
		UplinkBursts: 169, DeliveredPackets: 169, DeliveredBits: 32448,
		LatencySum: 30, LatencyMax: 1, QueueHighWater: []int{8, 1, 0},
	},
}

// The tentpole equivalence contract: single-class runs through the
// sharded fabric with the FIFO scheduler are bit-identical to the PR 4
// engine's dual-queue path — same deliveries, same drops, same
// latencies, same high-water marks, zero bit errors.
func TestFIFOSingleClassMatchesPR4Baseline(t *testing.T) {
	for name, want := range pr4Baseline {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			sp, err := Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(sp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sess.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.UplinkFailures != 0 || got.UplinkBitErrs != 0 ||
				got.DownlinkLost != 0 || got.DownlinkBitErrs != 0 {
				t.Fatalf("loop not bit-exact: %+v", got)
			}
			check := func(field string, g, w int) {
				if g != w {
					t.Errorf("%s = %d, PR 4 baseline %d", field, g, w)
				}
			}
			check("Frames", got.Frames, want.Frames)
			check("OfferedCells", got.OfferedCells, want.OfferedCells)
			check("GrantedCells", got.GrantedCells, want.GrantedCells)
			check("DeniedCells", got.DeniedCells, want.DeniedCells)
			check("ThrottledCells", got.ThrottledCells, want.ThrottledCells)
			check("UplinkBursts", got.UplinkBursts, want.UplinkBursts)
			check("DeliveredPackets", got.DeliveredPackets, want.DeliveredPackets)
			check("DeliveredBits", got.DeliveredBits, want.DeliveredBits)
			check("DroppedQueue", got.DroppedQueue, want.DroppedQueue)
			check("DroppedReencode", got.DroppedReencode, want.DroppedReencode)
			check("LatencySum", got.LatencySum, want.LatencySum)
			check("LatencyMax", got.LatencyMax, want.LatencyMax)
			for b := range want.QueueHighWater {
				check("QueueHighWater", got.QueueHighWater[b], want.QueueHighWater[b])
			}
			// Single-class: everything concentrates in the BE row.
			be := got.PerClass[switchfab.ClassBE]
			check("PerClass[be].Delivered", be.DeliveredPackets, want.DeliveredPackets)
			check("PerClass[be].DroppedQueue", be.DroppedQueue, want.DroppedQueue)
		})
	}
}

// Scripted set-scheduler and set-class events reach the live engine at
// their frame boundaries and land in the event log.
func TestScriptedSchedulerAndClassEvents(t *testing.T) {
	sp := Spec{
		Frames: 8,
		System: SystemSpec{Codec: "uncoded"},
		Traffic: TrafficSpec{
			Carriers: 2, Slots: 2, SlotSymbols: 320, GuardSymbols: 16,
			QueueDepth: 4, Seed: 17,
		},
		Terminals: []TerminalSpec{
			{ID: "a", Beam: 0, Class: "ef", Model: ModelSpec{Kind: "cbr", Cells: 1}},
			{ID: "b", Beam: 0, Model: ModelSpec{Kind: "cbr", Cells: 2}},
		},
		Events: []Event{
			{Frame: 2, Action: ActionSetScheduler, Scheduler: &SchedulerSpec{Kind: "strict", BEFloor: 1}},
			{Frame: 4, Action: ActionSetClass, Terminal: "b", Class: "af"},
			{Frame: 6, Action: ActionSetScheduler, Scheduler: &SchedulerSpec{
				Kind: "drr", WeightEF: 2, WeightAF: 1, WeightBE: 1}},
		},
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	if got := sess.Engine().Config().Scheduler.Name(); got != "fifo" {
		t.Fatalf("boot scheduler %q", got)
	}
	sawStrict := false
	for sess.Frame() < sp.Frames {
		f := sess.Frame()
		if _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
		if f >= 2 && f < 6 {
			sawStrict = true
			if got := sess.Engine().Config().Scheduler.Name(); got != "strict+be1" {
				t.Fatalf("frame %d scheduler %q, want strict+be1", f, got)
			}
		}
	}
	if !sawStrict {
		t.Fatal("strict window never observed")
	}
	if got := sess.Engine().Config().Scheduler.Name(); got != "drr-2/1/1" {
		t.Fatalf("final scheduler %q, want drr-2/1/1", got)
	}
	rep := sess.Report()
	if rep.PerClass[switchfab.ClassAF].RoutedPackets == 0 {
		t.Fatal("set-class never took effect: AF saw no packets")
	}
	if rep.PerClass[switchfab.ClassEF].RoutedPackets == 0 {
		t.Fatal("EF terminal routed nothing")
	}
	var actions []string
	for _, rec := range sess.EventLog() {
		if rec.Err != nil {
			t.Fatalf("event failed: %v", rec)
		}
		actions = append(actions, rec.Action)
	}
	if len(actions) != 3 || actions[0] != ActionSetScheduler || actions[1] != ActionSetClass {
		t.Fatalf("event log %v", actions)
	}
}

// The qos-priority preset delivers its headline: EF rides through the
// best-effort flash crowd with zero drops and zero queueing delay,
// best effort absorbs the overload (drops, deep backlog), and the BE
// floor keeps it from starving.
func TestQoSPriorityPresetProtectsEF(t *testing.T) {
	sp, err := Preset("qos-priority")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UplinkFailures != 0 || rep.UplinkBitErrs != 0 ||
		rep.DownlinkLost != 0 || rep.DownlinkBitErrs != 0 {
		t.Fatalf("loop not bit-exact: %+v", rep)
	}
	ef := rep.PerClass[switchfab.ClassEF]
	be := rep.PerClass[switchfab.ClassBE]
	if ef.DroppedQueue != 0 || ef.DroppedReencode != 0 {
		t.Fatalf("EF dropped packets: %+v", ef)
	}
	if ef.LatencyMax != 0 {
		t.Fatalf("EF queued %d frames under strict priority", ef.LatencyMax)
	}
	if be.DroppedQueue == 0 {
		t.Fatal("the flash crowd never overflowed the BE queue")
	}
	if be.DeliveredPackets == 0 {
		t.Fatal("BE starved despite the floor")
	}
	if rep.PerClass[switchfab.ClassAF].RoutedPackets == 0 {
		t.Fatal("AF saw no traffic")
	}
}
