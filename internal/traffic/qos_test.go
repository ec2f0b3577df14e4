package traffic

import (
	"testing"

	"repro/internal/switchfab"
)

// qosOverloadTerms aims an EF trickle and a BE overload at beam 0:
// 3 cells/frame in against 2 slots/frame out, so the beam's downlink
// backlog grows until the BE class queue drops.
func qosOverloadTerms() []Terminal {
	return []Terminal{
		{ID: "voice", Beam: 0, Class: switchfab.ClassEF, Model: CBR{Cells: 1}},
		{ID: "bulk", Beam: 0, Class: switchfab.ClassBE, Model: CBR{Cells: 2}},
	}
}

func qosConfig(sched switchfab.Scheduler) Config {
	cfg := DefaultConfig()
	cfg.Frame = smallFrame(2, 2)
	cfg.QueueDepth = 3
	cfg.Seed = 13
	cfg.Scheduler = sched
	return cfg
}

// Strict priority must hold the EF class at zero drops and zero queueing
// delay while best effort absorbs the whole overload — the E13 claim at
// engine scale. Under FIFO the same load queues EF behind the BE
// backlog.
func TestEngineStrictPriorityProtectsEF(t *testing.T) {
	e := newEngine(t, qosConfig(switchfab.StrictPriority{BEFloor: 1}), qosOverloadTerms(), "uncoded")
	if err := e.RunFrames(12); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	ef, be := r.PerClass[switchfab.ClassEF], r.PerClass[switchfab.ClassBE]
	if ef.DroppedQueue != 0 {
		t.Fatalf("EF dropped %d packets under strict priority", ef.DroppedQueue)
	}
	if ef.LatencyMax != 0 {
		t.Fatalf("EF latency max %d frames under strict priority, want 0", ef.LatencyMax)
	}
	if ef.DeliveredPackets == 0 {
		t.Fatal("EF starved")
	}
	if be.DroppedQueue == 0 {
		t.Fatal("overloaded BE class dropped nothing")
	}
	if be.HighWater != e.Config().QueueDepth {
		t.Fatalf("BE high water %d, want the %d-packet class bound", be.HighWater, e.Config().QueueDepth)
	}
	// The per-class rows must sum to the run totals.
	if ef.DeliveredPackets+be.DeliveredPackets != r.DeliveredPackets ||
		ef.DeliveredBits+be.DeliveredBits != r.DeliveredBits ||
		ef.DroppedQueue+be.DroppedQueue != r.DroppedQueue ||
		ef.LatencySum+be.LatencySum != r.LatencySum {
		t.Fatalf("per-class stats do not sum to the run totals: %+v vs %+v", r.PerClass, r)
	}

	fifo := newEngine(t, qosConfig(switchfab.FIFO{}), qosOverloadTerms(), "uncoded")
	if err := fifo.RunFrames(12); err != nil {
		t.Fatal(err)
	}
	if got := fifo.Report().PerClass[switchfab.ClassEF].LatencyMax; got == 0 {
		t.Fatal("FIFO kept EF latency at zero under a BE overload — the strict run proves nothing")
	}
}

// DRR converges the saturated classes' downlink shares to the weights.
func TestEngineDRRWeightedShares(t *testing.T) {
	d, err := switchfab.NewDRR(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	terms := []Terminal{
		{ID: "ef", Beam: 0, Class: switchfab.ClassEF, Model: CBR{Cells: 2}},
		{ID: "af", Beam: 0, Class: switchfab.ClassAF, Model: CBR{Cells: 1}},
		{ID: "be", Beam: 0, Class: switchfab.ClassBE, Model: CBR{Cells: 1}},
	}
	cfg := qosConfig(d)
	cfg.QueueDepth = 8
	e := newEngine(t, cfg, terms, "uncoded")
	if err := e.RunFrames(24); err != nil {
		t.Fatal(err)
	}
	r := e.Report()
	ef := r.PerClass[switchfab.ClassEF].DeliveredPackets
	af := r.PerClass[switchfab.ClassAF].DeliveredPackets
	be := r.PerClass[switchfab.ClassBE].DeliveredPackets
	if ef == 0 || af == 0 || be == 0 {
		t.Fatalf("a class starved under DRR: %d/%d/%d", ef, af, be)
	}
	// 2 slots/frame on beam 0 at weights 2:1:1 → EF ≈ half the service.
	share := float64(ef) / float64(ef+af+be)
	if share < 0.40 || share > 0.60 {
		t.Fatalf("EF share %.2f under 2:1:1 DRR, want ≈0.5", share)
	}
}

// SetScheduler and SetTerminalClass mutate the live run at frame
// boundaries: the swap changes how queued packets drain, the class
// change marks subsequent packets only, and bad arguments are errors.
func TestSetSchedulerAndClassMidRun(t *testing.T) {
	e := newEngine(t, qosConfig(nil), qosOverloadTerms(), "uncoded")
	if e.Config().Scheduler.Name() != "fifo" {
		t.Fatalf("nil scheduler resolved to %q, want fifo", e.Config().Scheduler.Name())
	}
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	if err := e.SetScheduler(nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if err := e.SetScheduler(switchfab.StrictPriority{BEFloor: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.Config().Scheduler.Name(); got != "strict+be1" {
		t.Fatalf("config scheduler %q after swap", got)
	}
	if err := e.SetTerminalClass("ghost", switchfab.ClassEF); err == nil {
		t.Fatal("unknown terminal accepted")
	}
	if err := e.SetTerminalClass("bulk", switchfab.NumClasses); err == nil {
		t.Fatal("out-of-range class accepted")
	}
	before := e.Report().PerClass[switchfab.ClassAF].RoutedPackets
	if before != 0 {
		t.Fatalf("AF saw %d packets before the class change", before)
	}
	if err := e.SetTerminalClass("bulk", switchfab.ClassAF); err != nil {
		t.Fatal(err)
	}
	if err := e.RunFrames(4); err != nil {
		t.Fatal(err)
	}
	if got := e.Report().PerClass[switchfab.ClassAF].RoutedPackets; got == 0 {
		t.Fatal("reclassified terminal still routes BE")
	}
}
