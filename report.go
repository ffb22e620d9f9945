package drstrange

import (
	"encoding/json"
	"fmt"
	"strings"

	"drstrange/internal/sim"
)

// Figure is one rendered table/figure of a report: the simulator's own
// figure type, whose JSON tags give every consumer (the CLIs' -json,
// bench tooling, future services) one format.
type Figure = sim.Figure

// Series is one named row of a figure, aligned with the figure's
// labels.
type Series = sim.Series

// ControllerStats is the memory-controller summary a run report
// carries (the counters the drstrange CLI has always printed).
type ControllerStats struct {
	ReadsServed         int64 `json:"reads_served"`
	WritesServed        int64 `json:"writes_served"`
	RNGServed           int64 `json:"rng_served"`
	RNGFromBuffer       int64 `json:"rng_from_buffer"`
	RNGRounds           int64 `json:"rng_rounds"`
	ModeSwitches        int64 `json:"mode_switches"`
	StarvationOverrides int64 `json:"starvation_overrides"`
}

// RunMetrics is the derived outcome of a run scenario: the paper's
// workload metrics for one design/mix evaluation.
type RunMetrics struct {
	Design    string `json:"design"`
	Mechanism string `json:"mechanism"`
	Mix       string `json:"mix"`

	NonRNGSlowdown    float64 `json:"non_rng_slowdown"`
	RNGSlowdown       float64 `json:"rng_slowdown"`
	Unfairness        float64 `json:"unfairness"`
	WeightedSpeedup   float64 `json:"weighted_speedup"`
	BufferServeRate   float64 `json:"buffer_serve_rate"`
	PredictorAccuracy float64 `json:"predictor_accuracy"`
	RNGStallFrac      float64 `json:"rng_stall_frac"`
	EnergyJ           float64 `json:"energy_j"`

	Controller ControllerStats `json:"controller"`
}

// ServePointStats is one offered-load point's streaming-pipeline cost
// counters: how much memory and recycling the serve path needed to
// measure the point, alongside the latency figures it produced. The
// serve pipeline's heap is O(outstanding requests) — PeakOutstanding is
// that bound measured, independent of window length, and LatencyBins is
// the exact-percentile histogram's footprint in distinct values (versus
// one slice element per completed request before streaming metrics).
type ServePointStats struct {
	OfferedMbps      float64 `json:"offered_mbps"`
	Submitted        int64   `json:"submitted"`
	Completed        int64   `json:"completed"`
	PeakOutstanding  int64   `json:"peak_outstanding"`
	RecycledRequests int64   `json:"recycled_requests"`
	LatencyBins      int     `json:"latency_bins"`
	// PerShard is each channel shard's routing/occupancy snapshot after
	// the point's drain; present only on sharded sweeps (shards > 1), so
	// single-channel reports keep their historical JSON bytes.
	PerShard []ShardPointStats `json:"per_shard,omitempty"`
	// Health is the point's aggregate availability outcome; present only
	// when the scenario ran with health monitoring on, so unmonitored
	// reports keep their historical JSON bytes.
	Health *ServeHealthStats `json:"health,omitempty"`
	// Overload-robustness stats; all omitted on the historical open-loop
	// unclassed path, so its reports keep their exact JSON bytes.
	// Population is the closed-loop client count of the point; Shed,
	// DeadlineMissed, and Retried are the point-wide overload counters;
	// PerClass the per-request-class breakdown when classes are
	// configured.
	Population     int               `json:"population,omitempty"`
	Shed           int64             `json:"shed,omitempty"`
	DeadlineMissed int64             `json:"deadline_missed,omitempty"`
	Retried        int64             `json:"retried,omitempty"`
	PerClass       []ClassPointStats `json:"per_class,omitempty"`
}

// ClassPointStats is one request class's slice of a serve point.
// Latencies are in memory ticks, like the other point stats;
// ViolationFrac is the class's SLO-violation fraction (late completions
// + deadline misses over completions + misses).
type ClassPointStats = sim.ClassStat

// ServeHealthStats is one serve point's aggregate health/availability
// counters: trip count, quarantine downtime, deadline-failed and
// rerouted requests, and the availability fraction with its "nines".
type ServeHealthStats = sim.ServeHealth

// ShardPointStats is one channel shard's slice of a sharded serve
// point: how many requests the router sent it, how many it completed,
// its occupancy high-water mark, and its buffer hit rate. The health
// fields are meaningful only when the point carries Health stats;
// FirstTripTick is -1 for a monitored shard that never tripped.
type ShardPointStats struct {
	Shard            int     `json:"shard"`
	Routed           int64   `json:"routed"`
	Completed        int64   `json:"completed"`
	PeakOutstanding  int64   `json:"peak_outstanding"`
	BufferHitRate    float64 `json:"buffer_hit_rate"`
	Trips            int64   `json:"trips,omitempty"`
	FirstTripTick    int64   `json:"first_trip_tick,omitempty"`
	DowntimeTicks    int64   `json:"downtime_ticks,omitempty"`
	FailedRequests   int64   `json:"failed_requests,omitempty"`
	ReroutedRequests int64   `json:"rerouted_requests,omitempty"`
	// Shed and DeadlineMissed count this shard's admission refusals and
	// class-deadline failures; omitted on the unclassed path.
	Shed           int64 `json:"shed,omitempty"`
	DeadlineMissed int64 `json:"deadline_missed,omitempty"`
}

// ServeDesignStats groups one design's per-point pipeline stats, in the
// scenario's load order. Shards/Router echo the sharded topology the
// points were measured on (zero on single-channel sweeps).
type ServeDesignStats struct {
	Design string            `json:"design"`
	Shards int               `json:"shards,omitempty"`
	Router string            `json:"router,omitempty"`
	Points []ServePointStats `json:"points"`
}

// Report is the result of running a Scenario: one serializable format
// for every kind. Figure and serve scenarios fill Figures; run
// scenarios fill Run; serve scenarios additionally fill Serve with the
// per-point pipeline stats. Render produces the exact text the pre-API
// drivers printed, so downstream diffs keep working; JSON produces the
// machine-readable form.
type Report struct {
	Scenario Scenario           `json:"scenario"`
	Figures  []Figure           `json:"figures,omitempty"`
	Run      *RunMetrics        `json:"run,omitempty"`
	Serve    []ServeDesignStats `json:"serve,omitempty"`
}

// JSON serializes the report (two-space indent, trailing newline).
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Render formats the report as the drivers' conventional text:
//
//   - figure scenarios: the aligned figure tables (sim.RenderAll);
//   - serve scenarios: the per-design latency-vs-load tables plus the
//     units footer, byte-identical to cmd/rngbench's classic output;
//   - run scenarios: the metric table cmd/drstrange has always
//     printed.
func (r *Report) Render() string {
	switch r.Scenario.Kind {
	case KindRun:
		if r.Run != nil {
			return renderRun(r.Run)
		}
		return ""
	case KindServe:
		return sim.RenderAll(r.Figures) + fmt.Sprintf(
			"latencies in ns (1 memory tick = %g ns); achieved/offered in Mb/s of served random bits\n",
			sim.TickNanos)
	default:
		return sim.RenderAll(r.Figures)
	}
}

func renderRun(m *RunMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "design: %s   mechanism: %s   mix: %s\n\n", m.Design, m.Mechanism, m.Mix)
	fmt.Fprintf(&b, "%-22s %10s\n", "metric", "value")
	rows := []struct {
		k string
		v float64
	}{
		{"non-RNG slowdown", m.NonRNGSlowdown},
		{"RNG slowdown", m.RNGSlowdown},
		{"unfairness", m.Unfairness},
		{"weighted speedup", m.WeightedSpeedup},
		{"buffer serve rate", m.BufferServeRate},
		{"predictor accuracy", m.PredictorAccuracy},
		{"RNG stall fraction", m.RNGStallFrac},
		{"energy (mJ)", m.EnergyJ * 1e3},
	}
	for _, row := range rows {
		fmt.Fprintf(&b, "%-22s %10.3f\n", row.k, row.v)
	}
	st := m.Controller
	fmt.Fprintf(&b, "\ncontroller: reads=%d writes=%d rng=%d (buffer hits=%d) rounds=%d switches=%d overrides=%d\n",
		st.ReadsServed, st.WritesServed, st.RNGServed, st.RNGFromBuffer,
		st.RNGRounds, st.ModeSwitches, st.StarvationOverrides)
	return b.String()
}

// serveStatsFrom extracts the public per-point pipeline stats from one
// design's measured serve points.
func serveStatsFrom(design string, pts []sim.ServePoint) ServeDesignStats {
	out := ServeDesignStats{Design: design, Points: make([]ServePointStats, len(pts))}
	for i, pt := range pts {
		out.Points[i] = ServePointStats{
			OfferedMbps:      pt.OfferedMbps,
			Submitted:        pt.Submitted,
			Completed:        pt.Completed,
			PeakOutstanding:  pt.PeakOutstanding,
			RecycledRequests: pt.RecycledRequests,
			LatencyBins:      pt.LatencyBins,
			Health:           pt.Health,
			Population:       pt.Population,
			Shed:             pt.Shed,
			DeadlineMissed:   pt.DeadlineMissed,
			Retried:          pt.Retried,
			PerClass:         pt.PerClass,
		}
		for _, sh := range pt.PerShard {
			out.Points[i].PerShard = append(out.Points[i].PerShard, ShardPointStats{
				Shard:            sh.Shard,
				Routed:           sh.Routed,
				Completed:        sh.Completed,
				PeakOutstanding:  int64(sh.PeakLive),
				BufferHitRate:    sh.BufferHitRate,
				Trips:            sh.Trips,
				FirstTripTick:    sh.FirstTripTick,
				DowntimeTicks:    sh.DowntimeTicks,
				FailedRequests:   sh.FailedRequests,
				ReroutedRequests: sh.ReroutedRequests,
				Shed:             sh.Shed,
				DeadlineMissed:   sh.DeadlineMissed,
			})
		}
		if pt.Shards > 1 && out.Shards == 0 {
			out.Shards, out.Router = pt.Shards, pt.Router
		}
	}
	return out
}
