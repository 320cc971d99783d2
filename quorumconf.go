// Package quorumconf is the public API of this repository: a Go
// implementation of "Quorum Based IP Address Autoconfiguration in Mobile
// Ad Hoc Networks" (Xu & Wu, ICDCS 2007), together with the discrete-event
// MANET simulator it runs on, the three stateful baselines the paper
// compares against, and the experiment harness that regenerates every
// table and figure of the paper's evaluation.
//
// The implementation lives in internal packages; this package re-exports
// the surface a downstream user needs:
//
//   - NewRuntime builds the simulation fabric (virtual clock, mobility,
//     unit-disk radio, message layer, metrics).
//   - NewQuorum / NewMANETconf / NewBuddy / NewCTree construct protocol
//     instances over a runtime.
//   - RunScenario drives a paper-style workload (sequential arrivals,
//     random waypoint at 20 m/s, mixed graceful/abrupt departures).
//   - Fig5 .. Fig14, Table1Trace, GenerateLayout and the Ablation*
//     functions regenerate the evaluation.
//
// See examples/ for runnable programs and DESIGN.md for the system map.
package quorumconf

import (
	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline/buddy"
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/baseline/manetconf"
	"quorumconf/internal/core"
	"quorumconf/internal/experiment"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/msg"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// Simulation fabric.
type (
	// Runtime bundles the simulator, topology, network and metrics of one
	// run.
	Runtime = protocol.Runtime
	// RuntimeConfig parameterizes NewRuntime.
	RuntimeConfig = protocol.RuntimeConfig
	// NodeID identifies a node.
	NodeID = radio.NodeID
	// Point is a position in meters.
	Point = mobility.Point
	// Rect is the deployment area.
	Rect = mobility.Rect
	// Collector accumulates hop counts and latency samples.
	Collector = metrics.Collector
	// Category classifies protocol traffic.
	Category = metrics.Category
)

// Address space.
type (
	// Addr is an IPv4 address.
	Addr = addrspace.Addr
	// Block is a contiguous address range.
	Block = addrspace.Block
)

// The quorum protocol (the paper's contribution).
type (
	// Quorum is the quorum-based autoconfiguration protocol.
	Quorum = core.Protocol
	// QuorumParams configures it.
	QuorumParams = core.Params
	// Role is a node's cluster role.
	Role = core.Role
	// NetTag identifies a network partition.
	NetTag = msg.NetTag
)

// Roles.
const (
	RoleUnconfigured = core.RoleUnconfigured
	RoleCommon       = core.RoleCommon
	RoleHead         = core.RoleHead
)

// Traffic categories.
const (
	CatConfig      = metrics.CatConfig
	CatMovement    = metrics.CatMovement
	CatDeparture   = metrics.CatDeparture
	CatReclamation = metrics.CatReclamation
	CatSync        = metrics.CatSync
	CatHello       = metrics.CatHello
	CatPartition   = metrics.CatPartition
)

// Baselines.
type (
	// MANETconf is the full-replication baseline [1].
	MANETconf = manetconf.Protocol
	// MANETconfParams configures it.
	MANETconfParams = manetconf.Params
	// Buddy is the disjoint-block baseline [2] (Mohsin–Prakash).
	Buddy = buddy.Protocol
	// BuddyParams configures it.
	BuddyParams = buddy.Params
	// CTree is the coordinator-tree baseline [3] (Sheu et al.).
	CTree = ctree.Protocol
	// CTreeParams configures it.
	CTreeParams = ctree.Params
)

// Workloads and experiments.
type (
	// Protocol is the interface every autoconfiguration protocol
	// implements.
	Protocol = protocol.Protocol
	// Scenario is a paper-style workload.
	Scenario = workload.Scenario
	// ScenarioResult is the outcome of one run.
	ScenarioResult = workload.Result
	// BuildFunc constructs a protocol over a fresh runtime.
	BuildFunc = workload.BuildFunc
	// ExperimentConfig scales the figure sweeps.
	ExperimentConfig = experiment.Config
	// Figure is reproduced evaluation data.
	Figure = experiment.Figure
	// Series is one curve of a figure.
	Series = experiment.Series
	// Layout is a Figure-4 style network layout.
	Layout = experiment.Layout
	// TraceEvent is one message of a Table-1 trace.
	TraceEvent = experiment.TraceEvent
)

// NewRuntime assembles the simulation fabric.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return protocol.NewRuntime(cfg) }

// NewQuorum creates the paper's protocol over a runtime.
func NewQuorum(rt *Runtime, params QuorumParams) (*Quorum, error) { return core.New(rt, params) }

// NewMANETconf creates the full-replication baseline.
func NewMANETconf(rt *Runtime, params MANETconfParams) (*MANETconf, error) {
	return manetconf.New(rt, params)
}

// NewBuddy creates the disjoint-block baseline.
func NewBuddy(rt *Runtime, params BuddyParams) (*Buddy, error) { return buddy.New(rt, params) }

// NewCTree creates the coordinator-tree baseline.
func NewCTree(rt *Runtime, params CTreeParams) (*CTree, error) { return ctree.New(rt, params) }

// RunScenario executes a workload against the protocol built by build.
func RunScenario(sc Scenario, build BuildFunc) (*ScenarioResult, error) {
	return workload.Run(sc, build)
}

// PrepareScenario schedules a workload without running it, so callers can
// add mid-run probes before advancing the clock.
func PrepareScenario(sc Scenario, build BuildFunc) (*ScenarioResult, error) {
	return workload.Prepare(sc, build)
}

// Experiment runners, one per table/figure of the paper.
var (
	Fig5  = experiment.Fig5
	Fig6  = experiment.Fig6
	Fig7  = experiment.Fig7
	Fig8  = experiment.Fig8
	Fig9  = experiment.Fig9
	Fig10 = experiment.Fig10
	Fig11 = experiment.Fig11
	Fig12 = experiment.Fig12
	Fig13 = experiment.Fig13
	Fig14 = experiment.Fig14

	// AllFigures runs Fig5..Fig14 in paper order.
	AllFigures = experiment.All
	// Ablations runs the design-choice studies from DESIGN.md §5.
	Ablations = experiment.Ablations
)

// Table1Trace reproduces the paper's Table 1 message exchange.
func Table1Trace() ([]TraceEvent, error) { return experiment.Table1Trace() }

// FormatTrace renders a trace in Table-1 style.
func FormatTrace(events []TraceEvent) string { return experiment.FormatTrace(events) }

// GenerateLayout reproduces a Figure-4 style random layout.
func GenerateLayout(cfg ExperimentConfig, nodes int, seed int64) (Layout, error) {
	return experiment.GenerateLayout(cfg, nodes, seed)
}
