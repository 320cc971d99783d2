package experiment

// The byzantine sweep is this repository's robustness evaluation: it grows
// the number of malicious insiders k and measures how the quorum protocol
// and the three baselines degrade on the three axes the paper's §VI
// evaluates in the honest setting — address uniqueness, configuration
// latency, and reclamation reliability. The malicious repertoire mixes
// protocol-specific attacks on the quorum scheme (forged votes, unballoted
// duplicate grants, forged reclamation reports; core.ByzantineParams) with
// protocol-agnostic ones every scheme faces (Sybil joiners and silent
// droppers; workload.Byzantine).

import (
	"fmt"

	"quorumconf/internal/baseline/buddy"
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/baseline/manetconf"
	"quorumconf/internal/core"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// byzantineKs is the number of malicious insiders at each x of the sweep.
var byzantineKs = []int{0, 2, 4, 6}

// splitMalicious deterministically partitions the k lowest node IDs into
// the active subset (vote-liar + duplicate-claimer insiders, which also
// mount Sybil joins) and the silent-dropper subset. Low IDs arrive first
// and therefore tend to become infrastructure (cluster heads, replica
// holders) — the worst-case insider. Every third malicious node is a
// dropper so both behavior classes are present from k >= 3.
func splitMalicious(k int) (active, droppers []radio.NodeID) {
	for i := 0; i < k; i++ {
		if i%3 == 2 {
			droppers = append(droppers, radio.NodeID(i))
		} else {
			active = append(active, radio.NodeID(i))
		}
	}
	return active, droppers
}

// byzScenario is the common workload for every protocol at a given k: a
// static mid-size network where a quarter of the nodes later crash
// abruptly (exercising reclamation), with the active malicious subset
// mounting Sybil joins and the dropper subset eating deliveries.
func (c Config) byzScenario(k int) workload.Scenario {
	active, droppers := splitMalicious(k)
	// Connected-growth placement keeps the fleet one multi-hop MANET
	// from the first node on (100·√2 < tr): the sweep then measures
	// what the insiders break, not partition-merge artifacts — buddy
	// and C-tree have no merge resolution, so independent uniform
	// placement would drown the byzantine signal in formation-time
	// duplicate spaces.
	return workload.Scenario{
		NumNodes:          c.MidSize,
		TransmissionRange: 150,
		Speed:             0,
		GrowRadius:        100,
		ArrivalInterval:   c.ArrivalInterval,
		DepartFraction:    0.25,
		AbruptFraction:    1.0,
		Byzantine: workload.Byzantine{
			SybilNodes:      active,
			SilentDropNodes: droppers,
		},
	}
}

// byzIDs lists every identity a run can configure: the initial nodes plus
// the Sybil identities the attackers present.
func byzIDs(sc workload.Scenario) []radio.NodeID {
	per := sc.Byzantine.SybilPerNode
	if per == 0 && len(sc.Byzantine.SybilNodes) > 0 {
		per = 3 // workload default
	}
	ids := make([]radio.NodeID, 0, sc.NumNodes+len(sc.Byzantine.SybilNodes)*per)
	for i := 0; i < sc.NumNodes; i++ {
		ids = append(ids, radio.NodeID(i))
	}
	for i := range sc.Byzantine.SybilNodes {
		for j := 0; j < per; j++ {
			ids = append(ids, radio.NodeID(sc.NumNodes+workload.SybilIDBase+i*per+j))
		}
	}
	return ids
}

// conflictRate returns the percentage of configured identities holding an
// address also held by another configured, mutually-reachable identity
// (protocol.Conflicts) — the headline uniqueness violation, zero in every
// honest run.
func conflictRate(res *workload.Result, sc workload.Scenario) float64 {
	ids := byzIDs(sc)
	configured := 0
	for _, id := range ids {
		if res.Proto.IsConfigured(id) {
			configured++
		}
	}
	if configured == 0 {
		return 0
	}
	conflicted := 0
	for _, group := range protocol.Conflicts(res.Proto, ids, res.RT.Topo.Snapshot(res.RT.Sim.Now())) {
		conflicted += len(group)
	}
	return 100 * float64(conflicted) / float64(configured)
}

// recoveryIndex normalizes the protocol's reclamation counter by the
// number of abrupt departures: how much leaked state each crash recovered
// on average. Sabotaged reclamation drags it toward zero.
func recoveryIndex(res *workload.Result, counter string) float64 {
	abrupt := 0
	for _, d := range res.Departures {
		if !d.Graceful {
			abrupt++
		}
	}
	if abrupt == 0 {
		return 0
	}
	return float64(res.Metrics().Counter(counter)) / float64(abrupt)
}

// byzantineRow is the catalog row of the sweep over byzantineKs: one arm per
// protocol, each round measuring conflict rate, configuration latency and
// recovery index, reduced into one figure per metric. Only the quorum
// protocol's build reads k, to arm the active malicious subset; the
// baselines face just the generic attacks.
func (c Config) byzantineRow() row {
	byz := func(name, recoveryCounter string, build builder) arm {
		return arm{name: name, build: build, measure: func(res *workload.Result, sc workload.Scenario) []float64 {
			return []float64{conflictRate(res, sc), meanLatency(res), recoveryIndex(res, recoveryCounter)}
		}}
	}
	return row{
		id: "byzantine", keys: []string{"byz"},
		xs:       floats(byzantineKs),
		scenario: func(x float64) workload.Scenario { return c.byzScenario(int(x)) },
		arms: []arm{
			byz("quorum", core.CounterAddrReclaimed, c.quorum(func(p *core.Params, x float64) {
				active, _ := splitMalicious(int(x))
				p.Byzantine = core.ByzantineParams{
					Nodes:     active,
					Behaviors: core.ByzVoteLiar | core.ByzDupClaimer,
				}
			})),
			byz("manetconf", manetconf.CounterCleanups, c.manetconf()),
			byz("buddy", buddy.CounterBuddyReclaims, c.buddy()),
			byz("ctree", ctree.CounterRootReclamations, c.ctree()),
		},
		plot: func(g *grid) []Figure {
			var figs []Figure
			for m, f := range []struct{ id, title, ylabel string }{
				{"byz-conflict", "Address-conflict rate vs malicious nodes k", "% conflicted identities"},
				{"byz-latency", "Configuration latency vs malicious nodes k", "latency (hops)"},
				{"byz-recovery", "Reclamation recovery index vs malicious nodes k", "addresses recovered / crash"},
			} {
				fig := Figure{ID: f.id, Title: fmt.Sprintf("%s (nn=%d)", f.title, c.MidSize), XLabel: "malicious nodes k", YLabel: f.ylabel}
				for ai, a := range g.row.arms {
					fig.Series = append(fig.Series, g.series(a.name, ai, m, meanErr))
				}
				figs = append(figs, fig)
			}
			return figs
		},
	}
}
