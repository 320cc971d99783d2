package quorumconf

import "testing"

// TestFacadeQuorumEndToEnd drives the public API the way the README shows.
func TestFacadeQuorumEndToEnd(t *testing.T) {
	sc := Scenario{Seed: 42, NumNodes: 30, TransmissionRange: 250, Speed: 20}
	res, err := RunScenario(sc, func(rt *Runtime) (Protocol, error) {
		return NewQuorum(rt, QuorumParams{Space: Block{Lo: 1, Hi: 512}})
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ok := res.Proto.(*Quorum)
	if !ok {
		t.Fatal("protocol is not *Quorum")
	}
	if got := p.ConfiguredCount(); got < 28 {
		t.Errorf("configured %d/30", got)
	}
	if len(p.Heads()) == 0 {
		t.Error("no cluster heads")
	}
	if c := p.AddressConflicts(); len(c) != 0 {
		t.Errorf("conflicts: %v", c)
	}
	if res.Metrics().Summarize("config_latency_hops").Count == 0 {
		t.Error("no latency samples")
	}
}

// TestFacadeBaselines constructs each baseline through the façade.
func TestFacadeBaselines(t *testing.T) {
	for name, build := range map[string]BuildFunc{
		"manetconf": func(rt *Runtime) (Protocol, error) {
			return NewMANETconf(rt, MANETconfParams{Space: Block{Lo: 1, Hi: 256}})
		},
		"buddy": func(rt *Runtime) (Protocol, error) {
			return NewBuddy(rt, BuddyParams{Space: Block{Lo: 1, Hi: 256}})
		},
		"ctree": func(rt *Runtime) (Protocol, error) {
			return NewCTree(rt, CTreeParams{Space: Block{Lo: 1, Hi: 256}})
		},
	} {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			res, err := RunScenario(Scenario{Seed: 5, NumNodes: 20, TransmissionRange: 250}, build)
			if err != nil {
				t.Fatal(err)
			}
			if res.Proto.Name() != name {
				t.Errorf("Name = %q, want %q", res.Proto.Name(), name)
			}
			configured := 0
			for i := NodeID(0); i < 20; i++ {
				if res.Proto.IsConfigured(i) {
					configured++
				}
			}
			if configured < 18 {
				t.Errorf("%s configured %d/20", name, configured)
			}
		})
	}
}

// TestFacadePrepareScenario verifies the probe-injection path.
func TestFacadePrepareScenario(t *testing.T) {
	res, err := PrepareScenario(Scenario{Seed: 2, NumNodes: 10, TransmissionRange: 250}, func(rt *Runtime) (Protocol, error) {
		return NewQuorum(rt, QuorumParams{Space: Block{Lo: 1, Hi: 64}})
	})
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	res.RT.Sim.ScheduleAt(res.Horizon/2, func() { fired = true })
	if err := res.RT.Sim.RunUntil(res.Horizon); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("probe not fired")
	}
}
