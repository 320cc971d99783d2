package experiment

import (
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/core"
	"quorumconf/internal/metrics"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// The round metrics the catalog's rows read.

// meanLatency is the mean configuration latency in hops.
func meanLatency(res *workload.Result) float64 {
	return res.Metrics().Summarize(protocol.SampleConfigLatency).Mean
}

// hops is the message overhead, in hops, over the given categories.
func hops(cats ...metrics.Category) func(*workload.Result) float64 {
	return func(res *workload.Result) float64 { return float64(res.Metrics().TotalHops(cats...)) }
}

// counter reads a protocol counter.
func counter(name string) func(*workload.Result) float64 {
	return func(res *workload.Result) float64 { return float64(res.Metrics().Counter(name)) }
}

// configuredFraction is the share of the network's nodes holding an
// address.
func configuredFraction(res *workload.Result) float64 {
	return float64(res.Proto.(*core.Protocol).ConfiguredCount()) / float64(res.RT.Topo.Len())
}

// quorumStructure measures Figure 12 over the quorum protocol's heads:
// the mean QDSet size, the aggregate extension factor (total usable space,
// IPSpace plus QuorumSpace, over total owned space) and the mean usable
// space per head.
func quorumStructure(res *workload.Result, _ workload.Scenario) []float64 {
	qp := res.Proto.(*core.Protocol)
	heads := qp.Heads()
	if len(heads) == 0 {
		return []float64{0, 0, 0}
	}
	var qd, ownTot, effTot float64
	for _, h := range heads {
		qd += float64(qp.QDSetSize(h))
		ownTot += float64(qp.OwnSpaceSize(h))
		effTot += float64(qp.EffectiveSpaceSize(h))
	}
	ext := 0.0
	if ownTot > 0 {
		ext = effTot / ownTot
	}
	n := float64(len(heads))
	return []float64{qd / n, ext, effTot / n}
}

// ctreePool is the C-tree scheme's mean pool per coordinator.
func ctreePool(res *workload.Result, _ workload.Scenario) []float64 {
	cp := res.Proto.(*ctree.Protocol)
	coords := cp.Coordinators()
	if len(coords) == 0 {
		return []float64{0}
	}
	var pool float64
	for _, id := range coords {
		pool += float64(cp.PoolSize(id))
	}
	return []float64{pool / float64(len(coords))}
}

// fig12Plot reduces Figure 12: the per-round means of QDSet size and
// extension factor, and the quorum protocol's usable space over the C-tree
// pool, each summed over the rounds.
func fig12Plot(g *grid) []Figure {
	ratio := Series{Name: "vs ctree (x)", Points: make([]Point, len(g.row.xs))}
	for xi, x := range g.row.xs {
		eff, pool := sum(g.at(xi, 0, 2)), sum(g.at(xi, 1, 0))
		ratio.Points[xi] = Point{X: x}
		if pool > 0 {
			ratio.Points[xi].Y = eff / pool
		}
	}
	return []Figure{g.figure(g.series("avg |QDSet|", 0, 0, avg), g.series("space extension (x)", 0, 1, avg), ratio)}
}

// quorumKill kills a fraction of the heads at once and returns the share
// of killed heads whose state is unrecoverable: fewer than half their
// QDSet survived (§VI-D2).
func quorumKill(res *workload.Result, frac float64) []float64 {
	qp := res.Proto.(*core.Protocol)
	// Measure the replication mechanism: draw victims among heads that can
	// hold replicas (heads alone in a one-head island have no replication
	// story under either protocol; see EXPERIMENTS.md).
	var heads []radio.NodeID
	for _, h := range qp.Heads() {
		if len(qp.HoldersOf(h)) > 1 {
			heads = append(heads, h)
		}
	}
	victims := pickVictims(res, heads, frac)
	holders := make(map[radio.NodeID][]radio.NodeID, len(victims))
	dead := make(map[radio.NodeID]bool, len(victims))
	for _, v := range victims {
		holders[v] = qp.HoldersOf(v)
		dead[v] = true
	}
	for _, v := range victims {
		qp.NodeDeparting(v, false)
	}
	var lost float64
	for _, v := range victims {
		// QDSet = holders minus the owner itself.
		var qd, survivors int
		for _, h := range holders[v] {
			if h == v {
				continue
			}
			qd++
			if !dead[h] {
				survivors++
			}
		}
		if qd == 0 || 2*survivors < qd {
			lost++
		}
	}
	return []float64{lostShare(lost, len(victims))}
}

// ctreeKill does the same over the C-tree scheme: a killed coordinator's
// state survives only if it had reported to a C-root that is itself still
// alive.
func ctreeKill(res *workload.Result, frac float64) []float64 {
	cp := res.Proto.(*ctree.Protocol)
	// Same victim rule as the quorum round: coordinators that can be
	// backed up, i.e. can reach the C-root.
	snap := res.RT.Net.Snapshot()
	root, hasRoot := cp.Root()
	var coords []radio.NodeID
	for _, c := range cp.Coordinators() {
		if c == root || (hasRoot && snap.Reachable(c, root)) {
			coords = append(coords, c)
		}
	}
	victims := pickVictims(res, coords, frac)
	for _, v := range victims {
		cp.NodeDeparting(v, false)
	}
	var lost float64
	for _, v := range victims {
		if !cp.StatePreserved(v) {
			lost++
		}
	}
	return []float64{lostShare(lost, len(victims))}
}

// pickVictims draws frac of the candidates (at least one when frac > 0)
// from the round's seeded randomness.
func pickVictims(res *workload.Result, candidates []radio.NodeID, frac float64) []radio.NodeID {
	k := int(float64(len(candidates)) * frac)
	if k == 0 && frac > 0 && len(candidates) > 0 {
		k = 1
	}
	perm := res.RT.Sim.Rand().Perm(len(candidates))
	victims := make([]radio.NodeID, 0, k)
	for _, idx := range perm[:k] {
		victims = append(victims, candidates[idx])
	}
	return victims
}

func lostShare(lost float64, killed int) float64 {
	if killed == 0 {
		return 0
	}
	return lost / float64(killed)
}
