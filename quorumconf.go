// Package quorumconf is the public API of this repository: a Go
// implementation of "Quorum Based IP Address Autoconfiguration in Mobile
// Ad Hoc Networks" (Xu & Wu, ICDCS 2007), together with the discrete-event
// MANET simulator it runs on and the three stateful baselines the paper
// compares against.
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
//
// The examples in example_test.go run under go test. The paper's tables
// and figures are regenerated by cmd/quorumsim (quorumsim -fig), and
// BenchmarkFigure times each of them; DESIGN.md has the system map.
package quorumconf

import (
	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
	"quorumconf/internal/baseline/buddy"
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/baseline/manetconf"
	"quorumconf/internal/core"
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
	// MANETconfParams configures it; all three baselines take the same
	// parameters.
	MANETconfParams = baseline.Params
	// Buddy is the disjoint-block baseline [2] (Mohsin–Prakash).
	Buddy = buddy.Protocol
	// BuddyParams configures it.
	BuddyParams = baseline.Params
	// CTree is the coordinator-tree baseline [3] (Sheu et al.).
	CTree = ctree.Protocol
	// CTreeParams configures it.
	CTreeParams = baseline.Params
)

// Workloads.
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
