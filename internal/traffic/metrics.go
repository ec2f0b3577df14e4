package traffic

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/modem"
	"repro/internal/switchfab"
)

// TerminalStats is the per-terminal slice of the run metrics. The JSON
// tags are the -report-json schema campaign tooling consumes; field
// names are frozen there.
type TerminalStats struct {
	ID            string `json:"id"`
	Model         string `json:"model"`
	OfferedCells  int    `json:"offered_cells"`
	GrantedCells  int    `json:"granted_cells"`
	UplinkBits    int    `json:"uplink_bits"`    // info bits decoded on the uplink
	DeliveredBits int    `json:"delivered_bits"` // info bits transmitted on the downlink

	// Burst synchronization stats from the payload's receive chain,
	// aggregated over the terminal's uplink bursts. CFO figures are the
	// feedforward frequency estimates in cycles/symbol; they stay zero
	// when the legacy (clean-channel) sync chain is active.
	SyncBursts  int     `json:"sync_bursts"`             // bursts contributing to the sync stats
	MeanAbsCFO  float64 `json:"mean_abs_cfo,omitempty"`  // mean |CFO estimate| (cycles/symbol)
	MaxAbsCFO   float64 `json:"max_abs_cfo,omitempty"`   // max |CFO estimate| (cycles/symbol)
	MinUWMetric float64 `json:"min_uw_metric,omitempty"` // worst unique-word correlation seen
}

// PopulationStats is the per-population slice of the run metrics under
// the two-tier model: the aggregate remainder of one Population (the
// untraced members), request-side admission counters through routing
// and delivery. Tracer terminals report individually in PerTerminal and
// are not double-counted here; Members/Tracers record the split.
type PopulationStats struct {
	Name    string `json:"name"`
	Model   string `json:"model"`
	Class   string `json:"class"`
	Members int    `json:"members" feed:"gauge"` // total modeled members (Population.Count)
	Tracers int    `json:"tracers" feed:"gauge"` // members modeled as full terminals

	OfferedCells   int `json:"offered_cells"`
	GrantedCells   int `json:"granted_cells"`
	DeniedCells    int `json:"denied_cells"`
	ThrottledCells int `json:"throttled_cells"`
	UplinkBits     int `json:"uplink_bits"` // info bits of granted aggregate cells

	RoutedPackets    int `json:"routed_packets"`
	DroppedQueue     int `json:"dropped_queue"`
	DeliveredPackets int `json:"delivered_packets"`
	DeliveredBits    int `json:"delivered_bits"`

	LatencySum  int     `json:"latency_sum"`
	LatencyMean float64 `json:"latency_mean"`
	LatencyMax  int     `json:"latency_max"`
}

// ClassStats is the per-traffic-class slice of the run metrics: the
// switching fabric's queue accounting (packets routed, tail drops,
// per-class queue high-water) merged with the engine's delivery
// accounting (packets/bits onto the downlink, re-encode drops, latency)
// for one class. Report.PerClass carries one row per class, indexed by
// the switchfab class value (BE, AF, EF), so single-class runs read
// their familiar totals from the BE row.
type ClassStats struct {
	Class            string  `json:"class"`            // spec-level class name ("be", "af", "ef")
	RoutedPackets    int     `json:"routed_packets"`   // packets the fabric enqueued
	DroppedQueue     int     `json:"dropped_queue"`    // packets tail-dropped by a full class queue
	DroppedReencode  int     `json:"dropped_reencode"` // scheduled packets whose codeword no longer fits a burst
	DeliveredPackets int     `json:"delivered_packets"`
	DeliveredBits    int     `json:"delivered_bits"`
	HighWater        int     `json:"high_water"`  // peak occupancy of any single beam's queue of this class
	LatencySum       int     `json:"latency_sum"` // frames, summed over delivered packets
	LatencyMean      float64 `json:"latency_mean"`
	LatencyMax       int     `json:"latency_max"`
}

// Report is the metrics layer of one engine run. Model-time figures use
// the MF-TDMA frame duration at the paper's TDMA symbol rate; wall-time
// figures measure the software pipeline itself.
type Report struct {
	Frames       int `json:"frames"`
	OutageFrames int `json:"outage_frames"` // frames skipped because no codec was loaded mid-reconfiguration

	// Capacity requests.
	OfferedCells   int `json:"offered_cells"`   // cells requested by the population
	GrantedCells   int `json:"granted_cells"`   // cells allocated by the scheduler
	DeniedCells    int `json:"denied_cells"`    // requests clipped by a full frame
	ThrottledCells int `json:"throttled_cells"` // requests suppressed by downlink backpressure

	// Regenerative loop.
	UplinkBursts   int `json:"uplink_bursts"`   // bursts pushed through DEMOD/DECOD
	UplinkFailures int `json:"uplink_failures"` // bursts lost on the uplink (not found / service down)
	UplinkBitErrs  int `json:"uplink_bit_errs"` // info-bit errors on decoded uplink bursts

	// Downlink queues.
	DeliveredPackets int   `json:"delivered_packets"`
	DeliveredBits    int   `json:"delivered_bits"`
	DroppedQueue     int   `json:"dropped_queue"`    // packets dropped by the bounded per-beam queues
	DroppedReencode  int   `json:"dropped_reencode"` // packets whose codeword no longer fits a burst after a codec swap
	QueueHighWater   []int `json:"queue_high_water"`

	// End-to-end latency in frames (uplink ingress to downlink egress).
	// LatencySum is the raw sum over delivered packets, so callers can
	// compute means over run segments (phase B mean = sum delta over
	// delivered delta); LatencyMean is the whole-run mean.
	LatencySum  int     `json:"latency_sum"`
	LatencyMean float64 `json:"latency_mean"`
	LatencyMax  int     `json:"latency_max"`

	// Downlink verification (ground demodulation of the transmitted
	// wideband block); only populated when Config.Verify is set.
	Verified        bool `json:"verified"`
	DownlinkLost    int  `json:"downlink_lost"`
	DownlinkBitErrs int  `json:"downlink_bit_errs"`

	WallSeconds  float64 `json:"wall_seconds"`
	ModelSeconds float64 `json:"model_seconds"`

	// PerClass breaks the downlink queue and delivery figures down by
	// traffic class (one row per switchfab class, BE first); all-BE runs
	// concentrate in row 0.
	PerClass []ClassStats `json:"per_class"`

	// PerPopulation carries one row per aggregate population (two-tier
	// model), covering the untraced remainder; absent on purely
	// per-terminal runs, so pre-population report JSON is unchanged.
	PerPopulation []PopulationStats `json:"per_population,omitempty"`

	PerTerminal []TerminalStats `json:"per_terminal"`
}

// Counters visits every integer field of the report under the name the
// telemetry feed carries it by — the field's JSON tag, top level bare,
// each class row under "class.<class>." and each population row under
// "pop.<name>." (per-terminal rows are not in the feed). The tags are
// the one list of counter names: TelemetryObserver sets the feed from
// this walk and tlmcheck reconciles a feed against a report through it,
// so a field added to Report, ClassStats or PopulationStats is in both
// with no further edit. Every integer field is cumulative or a
// max-so-far, hence a never-decreasing counter, unless its tag says
// feed:"gauge".
func (r *Report) Counters(visit func(name string, v int64, gauge bool)) {
	visitInts("", reflect.ValueOf(r).Elem(), visit)
	for i := range r.PerClass {
		visitInts("class."+r.PerClass[i].Class+".", reflect.ValueOf(&r.PerClass[i]).Elem(), visit)
	}
	for i := range r.PerPopulation {
		visitInts("pop."+r.PerPopulation[i].Name+".", reflect.ValueOf(&r.PerPopulation[i]).Elem(), visit)
	}
}

func visitInts(prefix string, row reflect.Value, visit func(name string, v int64, gauge bool)) {
	for i, t := 0, row.Type(); i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Type.Kind() != reflect.Int {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		visit(prefix+name, row.Field(i).Int(), f.Tag.Get("feed") == "gauge")
	}
}

// multiClass reports whether any priority class (AF/EF) saw traffic —
// the gate for the per-class summary lines (an all-BE run would just
// repeat the downlink totals).
func (r *Report) multiClass() bool {
	if len(r.PerClass) != switchfab.NumClasses {
		return false
	}
	for c := int(switchfab.ClassAF); c < switchfab.NumClasses; c++ {
		if r.PerClass[c].RoutedPackets > 0 || r.PerClass[c].DroppedQueue > 0 {
			return true
		}
	}
	return false
}

// FramesPerSecond returns the wall-clock frame rate of the run.
func (r *Report) FramesPerSecond() float64 { return ratio(float64(r.Frames), r.WallSeconds) }

// GoodputBps returns the delivered information rate against the
// wall-clock, the software-pipeline throughput figure.
func (r *Report) GoodputBps() float64 { return ratio(float64(r.DeliveredBits), r.WallSeconds) }

// ModelGoodputBps returns the delivered information rate against the
// simulated air interface time.
func (r *Report) ModelGoodputBps() float64 { return ratio(float64(r.DeliveredBits), r.ModelSeconds) }

// FrameSeconds returns the air-interface duration of one MF-TDMA frame.
func FrameSeconds(cfg modem.FrameConfig) float64 {
	return float64(cfg.Slots*cfg.SlotSymbols) / modem.SymbolRateTDMA
}

// String renders a compact multi-line run summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "frames: %d (%d outage), %.1f frames/s wall\n", r.Frames, r.OutageFrames, r.FramesPerSecond())
	fmt.Fprintf(&b, "capacity: %d offered, %d granted, %d denied, %d throttled\n",
		r.OfferedCells, r.GrantedCells, r.DeniedCells, r.ThrottledCells)
	fmt.Fprintf(&b, "uplink: %d bursts, %d lost, %d bit errors\n", r.UplinkBursts, r.UplinkFailures, r.UplinkBitErrs)
	fmt.Fprintf(&b, "downlink: %d packets (%d bits), %d queue drops, %d re-encode drops\n",
		r.DeliveredPackets, r.DeliveredBits, r.DroppedQueue, r.DroppedReencode)
	fmt.Fprintf(&b, "goodput: %.0f bit/s wall, %.0f bit/s model\n", r.GoodputBps(), r.ModelGoodputBps())
	fmt.Fprintf(&b, "latency: mean %.2f frames, max %d; queue high water %v\n", r.LatencyMean, r.LatencyMax, r.QueueHighWater)
	if r.Verified {
		fmt.Fprintf(&b, "verify: %d bursts lost on ground demod, %d bit errors\n", r.DownlinkLost, r.DownlinkBitErrs)
	}
	if r.multiClass() {
		for c := switchfab.NumClasses - 1; c >= 0; c-- { // EF first
			cs := r.PerClass[c]
			if cs.RoutedPackets == 0 && cs.DroppedQueue == 0 {
				continue
			}
			fmt.Fprintf(&b, "  class %-2s routed %5d delivered %5d (%7d bits), %d queue drops, latency mean %.2f max %d, high water %d\n",
				cs.Class, cs.RoutedPackets, cs.DeliveredPackets, cs.DeliveredBits,
				cs.DroppedQueue, cs.LatencyMean, cs.LatencyMax, cs.HighWater)
		}
	}
	for _, ps := range r.PerPopulation {
		fmt.Fprintf(&b, "  pop %-8s %-16s %7d members (%d traced) offered %6d granted %6d delivered %6d pkts (%8d bits), %d queue drops, latency mean %.2f max %d\n",
			ps.Name, ps.Model, ps.Members, ps.Tracers, ps.OfferedCells, ps.GrantedCells,
			ps.DeliveredPackets, ps.DeliveredBits, ps.DroppedQueue, ps.LatencyMean, ps.LatencyMax)
	}
	for _, ts := range r.PerTerminal {
		fmt.Fprintf(&b, "  %-10s %-14s offered %4d granted %4d uplink %6d bits delivered %6d bits",
			ts.ID, ts.Model, ts.OfferedCells, ts.GrantedCells, ts.UplinkBits, ts.DeliveredBits)
		if ts.SyncBursts > 0 && (ts.MeanAbsCFO != 0 || ts.MaxAbsCFO != 0) {
			fmt.Fprintf(&b, " cfo %+.4f/%.4f c/sym uw>=%.2f",
				ts.MeanAbsCFO, ts.MaxAbsCFO, ts.MinUWMetric)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
