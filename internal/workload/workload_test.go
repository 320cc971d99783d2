package workload

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/mobility"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

func buildQuorum(rt *protocol.Runtime) (protocol.Protocol, error) {
	return core.New(rt, core.Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
}

func TestScenarioValidation(t *testing.T) {
	if _, err := Run(Scenario{}, buildQuorum); err == nil {
		t.Error("zero NumNodes accepted")
	}
	if _, err := Run(Scenario{NumNodes: 5, DepartFraction: 1.5}, buildQuorum); err == nil {
		t.Error("DepartFraction > 1 accepted")
	}
	if _, err := Run(Scenario{NumNodes: 5, AbruptFraction: -0.1}, buildQuorum); err == nil {
		t.Error("negative AbruptFraction accepted")
	}
	if _, err := Run(Scenario{NumNodes: 5}, nil); err == nil {
		t.Error("nil build accepted")
	}
}

func TestRunConfiguresNodes(t *testing.T) {
	res, err := Run(Scenario{Seed: 1, NumNodes: 25, Speed: 0}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Proto.(*core.Protocol)
	configured := 0
	for i := 0; i < 25; i++ {
		if res.Proto.IsConfigured(radio.NodeID(i)) {
			configured++
		}
	}
	if configured < 23 {
		t.Errorf("configured %d/25 nodes", configured)
	}
	if got := p.ConfiguredCount(); got != configured {
		t.Errorf("ConfiguredCount = %d vs %d", got, configured)
	}
	if res.Metrics().Summarize(protocol.SampleConfigLatency).Count == 0 {
		t.Error("no latency samples")
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() string {
		res, err := Run(Scenario{Seed: 42, NumNodes: 20, Speed: 20, DepartFraction: 0.3, AbruptFraction: 0.5}, buildQuorum)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	r1, err := Run(Scenario{Seed: 1, NumNodes: 20, Speed: 20}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Scenario{Seed: 2, NumNodes: 20, Speed: 20}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics().String() == r2.Metrics().String() {
		t.Error("different seeds produced identical metrics")
	}
}

func TestDeparturesScheduled(t *testing.T) {
	res, err := Run(Scenario{Seed: 3, NumNodes: 20, DepartFraction: 0.5, AbruptFraction: 0.4}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Departures) != 10 {
		t.Fatalf("scheduled %d departures, want 10", len(res.Departures))
	}
	graceful, abrupt := 0, 0
	for _, d := range res.Departures {
		if d.Graceful {
			graceful++
		} else {
			abrupt++
		}
		if res.Proto.IsConfigured(d.Node) {
			t.Errorf("departed node %d still configured", d.Node)
		}
	}
	if graceful == 0 || abrupt == 0 {
		t.Errorf("departure mix graceful=%d abrupt=%d, want both kinds", graceful, abrupt)
	}
}

func TestJoinSpotClustersArrivals(t *testing.T) {
	spot := mobility.Point{X: 500, Y: 500}
	res, err := Prepare(Scenario{
		Seed: 4, NumNodes: 15, Speed: 0,
		JoinSpot: &spot, JoinRadius: 80,
	}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.RT.Sim.RunUntil(res.Horizon); err != nil {
		t.Fatal(err)
	}
	snap := res.RT.Topo.Snapshot(res.Horizon)
	for _, id := range snap.Nodes() {
		p, _ := snap.Position(id)
		if p.Distance(spot) > 80*1.5 {
			t.Errorf("node %d at %v, too far from join spot", id, p)
		}
	}
}

func TestPrepareAllowsMidRunProbes(t *testing.T) {
	res, err := Prepare(Scenario{Seed: 5, NumNodes: 10, Speed: 0}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	probed := false
	res.RT.Sim.ScheduleAt(res.Horizon/2, func() { probed = true })
	if err := res.RT.Sim.RunUntil(res.Horizon); err != nil {
		t.Fatal(err)
	}
	if !probed {
		t.Error("mid-run probe never fired")
	}
}

func TestStaticScenarioDoesNotMove(t *testing.T) {
	res, err := Run(Scenario{Seed: 6, NumNodes: 8, Speed: 0, SettleTime: 30 * time.Second}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	early := res.RT.Topo.Snapshot(0)
	late := res.RT.Topo.Snapshot(res.Horizon)
	for _, id := range late.Nodes() {
		if !early.Contains(id) {
			continue
		}
		pe, _ := early.Position(id)
		pl, _ := late.Position(id)
		if pe.Distance(pl) > 1e-9 {
			t.Errorf("node %d moved in static scenario", id)
		}
	}
}

func TestLossRateValidation(t *testing.T) {
	if _, err := Run(Scenario{NumNodes: 5, LossRate: 1.0}, buildQuorum); err == nil {
		t.Error("LossRate 1.0 accepted")
	}
	if _, err := Run(Scenario{NumNodes: 5, LossRate: -0.1}, buildQuorum); err == nil {
		t.Error("negative LossRate accepted")
	}
}

func TestLossyScenarioStillConfigures(t *testing.T) {
	res, err := Run(Scenario{Seed: 8, NumNodes: 15, Speed: 0, LossRate: 0.1,
		TransmissionRange: 250, SettleTime: 90 * time.Second}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	configured := 0
	for i := 0; i < 15; i++ {
		if res.Proto.IsConfigured(radio.NodeID(i)) {
			configured++
		}
	}
	if configured < 12 {
		t.Errorf("only %d/15 configured under 10%% loss", configured)
	}
}

func TestChurnPhaseJoinsAndLeaves(t *testing.T) {
	spot := mobility.Point{X: 500, Y: 500}
	res, err := Run(Scenario{
		Seed:          3,
		NumNodes:      10,
		Speed:         0,
		JoinSpot:      &spot,
		JoinRadius:    120,
		ChurnRate:     2,
		ChurnDuration: 10 * time.Second,
		ChurnLifetime: 8 * time.Second,
		SettleTime:    30 * time.Second,
	}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	churners := 0
	for _, d := range res.Departures {
		if d.Node >= 10 {
			churners++
			if d.At >= res.Horizon+8*time.Second {
				t.Errorf("churn departure at %v far past horizon %v", d.At, res.Horizon)
			}
		}
	}
	if churners != 20 {
		t.Errorf("churn phase scheduled %d joins, want 20", churners)
	}
	// Churn nodes live long enough relative to the phase that most joins
	// succeed; the network must have kept allocating under churn.
	if got := res.Metrics().Counter(core.CounterConfigured); got < 20 {
		t.Errorf("only %d configurations under churn", got)
	}
	if res.Horizon != 10*5*time.Second+10*time.Second+30*time.Second {
		t.Errorf("horizon = %v", res.Horizon)
	}
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	run := func() string {
		res, err := Run(Scenario{
			Seed: 11, NumNodes: 8, Speed: 0,
			ChurnRate: 1, ChurnDuration: 8 * time.Second, AbruptFraction: 0.5,
		}, buildQuorum)
		if err != nil {
			t.Fatal(err)
		}
		return res.Metrics().String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same churn seed diverged:\n%s\nvs\n%s", a, b)
	}
}

func TestChurnValidation(t *testing.T) {
	if _, err := Run(Scenario{NumNodes: 5, ChurnRate: -1}, buildQuorum); err == nil {
		t.Error("negative ChurnRate accepted")
	}
}

func TestByzantineSybilJoinsAndDrops(t *testing.T) {
	ring := obs.NewRing(8192)
	res, err := Run(Scenario{
		Seed: 21, NumNodes: 10, Speed: 0,
		Tracer: obs.NewTracer(nil, ring),
		Byzantine: Byzantine{
			SybilNodes:      []radio.NodeID{2},
			SilentDropNodes: []radio.NodeID{5},
		},
	}, buildQuorum)
	if err != nil {
		t.Fatal(err)
	}
	sybils, drops := 0, 0
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case obs.EvByzantineSybilJoin:
			sybils++
			if e.Node < SybilIDBase {
				t.Errorf("sybil identity %d below SybilIDBase", e.Node)
			}
			if e.Peer != 2 {
				t.Errorf("sybil join attributed to attacker %d, want 2", e.Peer)
			}
		case obs.EvByzantineDrop:
			drops++
			if e.Node != 5 {
				t.Errorf("byzantine_drop at node %d, want 5", e.Node)
			}
		}
	}
	if sybils != 3 {
		t.Errorf("sybil join events = %d, want 3 (default SybilPerNode)", sybils)
	}
	if drops == 0 {
		t.Error("no byzantine_drop events: silent-dropper filter not installed")
	}
	// The dropper eats every delivery, so it can never finish configuring.
	if res.Proto.IsConfigured(5) {
		t.Error("silent-dropper configured itself despite eating all deliveries")
	}
}

func TestByzantineSybilValidation(t *testing.T) {
	_, err := Run(Scenario{
		Seed: 1, NumNodes: 5,
		Byzantine: Byzantine{SybilNodes: []radio.NodeID{99}},
	}, buildQuorum)
	if err == nil {
		t.Error("Sybil attacker outside initial node set accepted")
	}
}

func TestGrowRadiusFormsConnectedNetwork(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Scenario{Seed: seed, NumNodes: 30, Speed: 0, GrowRadius: 100}, buildQuorum)
		if err != nil {
			t.Fatal(err)
		}
		snap := res.RT.Topo.Snapshot(res.RT.Sim.Now())
		for i := 1; i < 30; i++ {
			if !snap.Reachable(0, radio.NodeID(i)) {
				t.Errorf("seed %d: node %d unreachable from node 0 under connected growth", seed, i)
			}
		}
	}
}
