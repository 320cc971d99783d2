package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Workload names. Every later performance claim quotes these verbatim.
const (
	wlOwner3         = "owner3"
	wlMember5        = "member5"
	wlLossy5         = "lossy5"
	wlSecureBatched5 = "secure_batched5"
	wlCrash5         = "crash5"
	wlSimChurn       = "sim_churn"
)

var (
	closedLoopWorkloads = []string{wlOwner3, wlMember5, wlLossy5, wlSecureBatched5}
	fleetWorkloads      = []string{wlOwner3, wlMember5, wlLossy5, wlSecureBatched5, wlCrash5}
)

// metricDef names one metric, its unit and direction, and — for an
// end-to-end metric — how much it may worsen before a change counts as a
// regression: by Bound as a share of the baseline, or by Abs in the
// metric's own unit, whichever allows more. Exact metrics are
// deterministic per seed and must repeat bit for bit.
type metricDef struct {
	Name      string
	Unit      string
	Better    string // "lower" or "higher"
	Bound     float64
	Abs       float64
	Exact     bool
	Workloads []string // nil: every workload
	// Ungated names workloads on which the metric is reported but swings
	// too far from run to run on this sandbox for any bound to hold.
	Ungated []string
}

// endToEnd are the metrics a user of the system sees. The first six are
// defined on every fleet workload and are the ones BENCHMARK.json lists;
// the rest exist on the workloads named. The bounds come from the spreads
// README.md records: this sandbox's CPU-bound numbers move by about 10%
// from run to run and by up to 20% from one quarter of an hour to the
// next, message counts by well under 1%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Abs: 0.005},
	{Name: "alloc_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: fleetWorkloads},
	{Name: "alloc_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: fleetWorkloads},
	// crash5's p99 is over some 1600 open-loop requests a run, 16 beyond
	// it, each timed from its due time: a 50 ms stall of the sandbox puts
	// five requests there. It read 3 ms and 62 ms on consecutive runs.
	{Name: "alloc_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: fleetWorkloads, Ungated: []string{wlCrash5}},
	{Name: "msgs_per_alloc", Unit: "count", Better: "lower", Bound: 0.02, Workloads: fleetWorkloads},
	{Name: "cpu_ms_per_alloc", Unit: "ms", Better: "lower", Bound: 0.25, Workloads: fleetWorkloads},
	{Name: "alloc_fail_share", Unit: "ratio", Better: "lower", Abs: 0.02, Workloads: fleetWorkloads},
	{Name: "reclaim_s", Unit: "s", Better: "lower", Bound: 0.08, Workloads: []string{wlCrash5}},
	{Name: "failover_s", Unit: "s", Better: "lower", Bound: 0.08, Workloads: []string{wlCrash5}},
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Workloads: []string{wlSimChurn}},
	{Name: "sim_allocs_per_simsec", Unit: "1/s", Better: "higher", Exact: true, Workloads: []string{wlSimChurn}},
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func (m metricDef) on(workload string) bool {
	return m.Workloads == nil || contains(m.Workloads, workload)
}

// gated reports whether the metric's bound applies on workload.
func (m metricDef) gated(workload string) bool { return !contains(m.Ungated, workload) }

// worse reports whether b is worse than a by more than the metric allows.
func (m metricDef) worse(a, b float64) bool {
	if m.Exact {
		return a != b
	}
	delta := b - a
	if m.Better == "higher" {
		delta = a - b
	}
	return delta > math.Max(m.Bound*math.Abs(a), m.Abs)
}

// value is one measured metric with the number of samples behind it.
type value struct {
	V    float64
	Unit string
	N    int
}

// result is what one run of one workload produced.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	// Metrics are keyed by metric name; order lists them as measured.
	Metrics map[string]value
	order   []string
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: make(map[string]value)}
}

// set records a metric; its unit comes from the tables above, so a name
// that is in neither table is a bug in the benchmark.
func (r *result) set(name string, v float64, n int) {
	def, ok := metricByName(name)
	if !ok {
		panic("quorumbench: metric " + name + " is in neither the end-to-end nor the per-layer table")
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = value{V: v, Unit: def.Unit, N: n}
}

// metricLine is the per-metric output line later issues quote from.
type metricLine struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Value    float64 `json:"value"`
	N        int     `json:"n"`
}

// summaryMetric and summaryLine are the last line of standard output.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

// print writes one line per metric, then the summary line holding exactly
// the names in summary. A name the run did not measure is an error: the
// summary's key set is a contract.
func (r *result) print(w io.Writer, summary []string) error {
	enc := json.NewEncoder(w)
	for _, name := range r.order {
		v := r.Metrics[name]
		if err := enc.Encode(metricLine{Workload: r.Workload, Metric: name, Unit: v.Unit, Value: v.V, N: v.N}); err != nil {
			return err
		}
	}
	sum := summaryLine{Correct: true, Attempted: r.Attempted, Failed: r.Failed, Metrics: make(map[string]summaryMetric)}
	for _, name := range summary {
		v, ok := r.Metrics[name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.Workload, name)
		}
		sum.Metrics[name] = summaryMetric{Value: v.V, Unit: v.Unit}
	}
	return enc.Encode(sum)
}

// perLayer are the metrics of single layers, named package.metric. They
// have no bound: they explain a movement of an end-to-end metric, they
// are not gated themselves. Workloads nil marks the workload-independent
// probes, which every traced run ends with.
var perLayer = []metricDef{
	// From the traced fleet's own counters, histograms and trace rings.
	{Name: "udptransport.data_tx_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "udptransport.ack_tx_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "udptransport.retries_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "udptransport.dup_drop_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "udptransport.send_drop_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "udptransport.batch_occupancy_mean", Unit: "count", Better: "higher", Workloads: fleetWorkloads},
	{Name: "daemon.ballot_rtt_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.ballot_rtt_p99_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.config_latency_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.ballots_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.ballot_retries_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.ballot_timeouts_per_alloc", Unit: "count", Better: "lower", Workloads: fleetWorkloads},
	{Name: "ctl.http_overhead_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.seg_forward_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.seg_ballot_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.seg_reply_p50_us", Unit: "us", Better: "lower", Workloads: fleetWorkloads},
	{Name: "daemon.fill_slope_us_per_kaddr", Unit: "us/kaddr", Better: "lower", Workloads: closedLoopWorkloads},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher", Workloads: closedLoopWorkloads},
	{Name: "daemon.detect_s", Unit: "s", Better: "lower", Workloads: []string{wlCrash5}},
	{Name: "daemon.reclaim_settle_s", Unit: "s", Better: "lower", Workloads: []string{wlCrash5}},
	{Name: "daemon.lost_during_failover", Unit: "count", Better: "lower", Workloads: []string{wlCrash5}},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower", Workloads: []string{wlCrash5}},
	{Name: "core.wall_s_per_simsec", Unit: "s", Better: "lower", Workloads: []string{wlSimChurn}},
	{Name: "core.events_per_alloc", Unit: "count", Better: "lower", Workloads: []string{wlSimChurn}},
	{Name: "core.msgs_per_alloc", Unit: "count", Better: "lower", Workloads: []string{wlSimChurn}},
	// Probes.
	{Name: "wire.encode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_small_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_small_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.decode_small_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.encode_replica4k_us", Unit: "us", Better: "lower"},
	{Name: "wire.decode_replica4k_us", Unit: "us", Better: "lower"},
	{Name: "wire.replica4k_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.seal_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.open_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch16_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.batch16_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "udptransport.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "udptransport.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "udptransport.stream_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "udptransport.rtt_auth_p50_us", Unit: "us", Better: "lower"},
	{Name: "udptransport.stream_batched_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "udptransport.lossy_rtt_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "udptransport.lossy_retries_per_msg", Unit: "count", Better: "lower"},
	{Name: "ctl.status_p50_us", Unit: "us", Better: "lower"},
	{Name: "daemon.single_alloc_p50_us", Unit: "us", Better: "lower"},
	{Name: "addrspace.get_ns", Unit: "ns", Better: "lower"},
	{Name: "addrspace.firstfree4k_us", Unit: "us", Better: "lower"},
	{Name: "addrspace.clone4k_us", Unit: "us", Better: "lower"},
	{Name: "addrspace.entries4k_us", Unit: "us", Better: "lower"},
	{Name: "obs.emit_ring_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.buildspans_10k_ms", Unit: "ms", Better: "lower"},
	{Name: "health.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.event_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.cancel_compact_ns", Unit: "ns", Better: "lower"},
	{Name: "radio.snapshot200_us", Unit: "us", Better: "lower"},
	{Name: "radio.hopcount_us", Unit: "us", Better: "lower"},
}

func metricByName(name string) (metricDef, bool) {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// The driver contract (BENCHMARK.json) wants every workload it lists to
// report every metric it lists, end-to-end metrics that are never 0, and
// run-to-run spreads inside bounds of at most 25%. So the file lists the
// four closed-loop fleet workloads, the end-to-end metrics defined on all
// of them (alloc_fail_share, 0 on a healthy run, travels as the summary's
// failed/attempted instead), and the per-layer metrics every fleet
// workload's traced run measures. crash5 (whose p99 over ~1600 open-loop
// requests spreads far wider than any bound), sim_churn, and the crash-
// and simulator-only metrics are reported by this program under the names
// above and gated by -selfcheck, outside that contract.
// TestBenchmarkJSONMatches holds the file and these lists together.
var driverWorkloads = closedLoopWorkloads

var driverEndToEnd = []string{
	"setup_s", "alloc_per_s", "alloc_p50_ms", "alloc_p99_ms", "msgs_per_alloc", "cpu_ms_per_alloc",
}

func driverPerLayer() []string {
	var names []string
	for _, m := range perLayer {
		all := true
		for _, w := range fleetWorkloads {
			all = all && m.on(w)
		}
		if all {
			names = append(names, m.Name)
		}
	}
	return names
}
