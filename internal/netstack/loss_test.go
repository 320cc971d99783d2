package netstack

import (
	"errors"
	"slices"
	"testing"

	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
)

func TestSetLossRateValidation(t *testing.T) {
	_, n := lineNet(t)
	for _, bad := range []float64{-0.1, 1.0, 2.0} {
		err := n.SetLossRate(bad)
		if err == nil {
			t.Errorf("SetLossRate(%v) accepted", bad)
			continue
		}
		if !errors.Is(err, ErrLossRateRange) {
			t.Errorf("SetLossRate(%v) = %v, want errors.Is ErrLossRateRange", bad, err)
		}
	}
	if err := n.SetLossRate(0); err != nil {
		t.Errorf("SetLossRate(0) rejected: %v", err)
	}
	if err := n.SetLossRate(0.5); err != nil {
		t.Errorf("SetLossRate(0.5) rejected: %v", err)
	}
}

func TestZeroLossDeliversEverything(t *testing.T) {
	s, n := lineNet(t)
	if err := n.SetLossRate(0); err != nil {
		t.Fatal(err)
	}
	got := 0
	_ = n.Register(4, func(Message) { got++ })
	for i := 0; i < 50; i++ {
		if _, ok := n.Unicast(0, 4, Message{Category: metrics.CatConfig}); !ok {
			t.Fatal("unicast failed")
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 50 {
		t.Errorf("delivered %d/50 with zero loss", got)
	}
}

func TestLossDropsSomeDeliveries(t *testing.T) {
	s, n := lineNet(t)
	if err := n.SetLossRate(0.3); err != nil {
		t.Fatal(err)
	}
	got := 0
	_ = n.Register(4, func(Message) { got++ })
	const sent = 200
	for i := 0; i < sent; i++ {
		if _, ok := n.Unicast(0, 4, Message{Category: metrics.CatConfig}); !ok {
			t.Fatal("unicast failed")
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 hops at 30% per-hop loss: survival 0.7^4 = 24%.
	if got == 0 || got == sent {
		t.Fatalf("delivered %d/%d, want partial delivery", got, sent)
	}
	want := float64(sent) * 0.24
	if float64(got) < want*0.5 || float64(got) > want*1.7 {
		t.Errorf("delivered %d, want around %.0f (0.7^4 survival)", got, want)
	}
	// Cost is charged regardless of loss.
	if n.Metrics().Hops(metrics.CatConfig) != int64(sent*4) {
		t.Errorf("charged %d hops, want %d (losses still cost)", n.Metrics().Hops(metrics.CatConfig), sent*4)
	}
}

func TestLossAppliesPerHop(t *testing.T) {
	// A one-hop neighbor must see more deliveries than a four-hop one at
	// the same loss rate.
	s, n := lineNet(t)
	if err := n.SetLossRate(0.3); err != nil {
		t.Fatal(err)
	}
	near, far := 0, 0
	_ = n.Register(1, func(Message) { near++ })
	_ = n.Register(4, func(Message) { far++ })
	for i := 0; i < 300; i++ {
		_, _ = n.Unicast(0, 1, Message{Category: metrics.CatConfig})
		_, _ = n.Unicast(0, 4, Message{Category: metrics.CatConfig})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if near <= far {
		t.Errorf("near=%d far=%d; per-hop loss must penalize longer paths", near, far)
	}
}

func TestLossAffectsFloodsAndLocalBroadcasts(t *testing.T) {
	s := sim.New(3)
	topo, _ := radio.NewTopology(150)
	for i := 0; i < 12; i++ {
		_ = topo.Add(radio.NodeID(i), mobility.Static(mobility.Point{X: float64(i) * 100}))
	}
	n, err := New(s, topo, metrics.New(), hop)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetLossRate(0.4); err != nil {
		t.Fatal(err)
	}
	received := 0
	for i := 1; i < 12; i++ {
		_ = n.Register(radio.NodeID(i), func(Message) { received++ })
	}
	tx := n.Flood(0, Message{Category: metrics.CatReclamation})
	if tx != 12 {
		t.Errorf("flood transmissions = %d, want 12 (cost unaffected by loss)", tx)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if received == 0 || received == 11 {
		t.Errorf("flood reached %d/11 under 40%% loss, want partial", received)
	}
}

func TestLossDeterministicPerSeed(t *testing.T) {
	run := func() int {
		s := sim.New(99)
		topo, _ := radio.NewTopology(150)
		for i := 0; i < 5; i++ {
			_ = topo.Add(radio.NodeID(i), mobility.Static(mobility.Point{X: float64(i) * 100}))
		}
		n, err := New(s, topo, metrics.New(), hop)
		if err != nil {
			t.Fatal(err)
		}
		_ = n.SetLossRate(0.5)
		got := 0
		_ = n.Register(4, func(Message) { got++ })
		for i := 0; i < 100; i++ {
			_, _ = n.Unicast(0, 4, Message{Category: metrics.CatConfig})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if a, b := run(), run(); a != b {
		t.Errorf("loss not deterministic per seed: %d vs %d", a, b)
	}
}

// TestFloodLossDeterministicPerSeed: under loss, which receivers a flood
// reaches follows from the seed alone. Receivers used to draw their loss in
// the map order of the hop-distance table, so two runs from one seed
// reached different nodes.
func TestFloodLossDeterministicPerSeed(t *testing.T) {
	run := func() [][]radio.NodeID {
		s := sim.New(7)
		topo, _ := radio.NewTopology(150)
		for i := 0; i < 12; i++ {
			_ = topo.Add(radio.NodeID(i), mobility.Static(mobility.Point{X: float64(i) * 100}))
		}
		n, err := New(s, topo, metrics.New(), hop)
		if err != nil {
			t.Fatal(err)
		}
		_ = n.SetLossRate(0.5)
		const floods = 10
		reached := make([][]radio.NodeID, floods)
		for i := 1; i < 12; i++ {
			id := radio.NodeID(i)
			_ = n.Register(id, func(m Message) {
				f := m.Payload.(int)
				reached[f] = append(reached[f], id)
			})
		}
		for f := 0; f < floods; f++ {
			n.Flood(0, Message{Category: metrics.CatReclamation, Payload: f})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for _, r := range reached {
			slices.Sort(r)
		}
		return reached
	}
	a, b := run(), run()
	for f := range a {
		if !slices.Equal(a[f], b[f]) {
			t.Errorf("flood %d reached %v, then %v from the same seed", f, a[f], b[f])
		}
	}
}
