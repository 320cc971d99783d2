package quorumconf_test

import (
	"fmt"
	"time"

	"quorumconf"
	"quorumconf/internal/mobility"
)

// Build a 50-node MANET, let the quorum protocol configure every node, and
// print the cluster structure and cost summary. The scenario is the
// paper's: sequential arrivals into 1km x 1km, random waypoint at 20 m/s.
// A 250 m transmission range keeps 50 nodes connected; sparser setups
// fragment into islands, whose merge Example_partition shows.
func Example() {
	sc := quorumconf.Scenario{
		Seed:              42,
		NumNodes:          50,
		TransmissionRange: 250,
		Speed:             20,
	}
	res, err := quorumconf.RunScenario(sc, func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
		return quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
			Space: quorumconf.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023}, // 10.0.0.1 + 1024 addresses
		})
	})
	if err != nil {
		panic(err)
	}

	p := res.Proto.(*quorumconf.Quorum)
	fmt.Printf("configured %d/%d nodes\n", p.ConfiguredCount(), sc.NumNodes)
	fmt.Printf("cluster heads: %v\n", p.Heads())
	for _, h := range p.Heads() {
		ip, _ := p.IP(h)
		fmt.Printf("  head %3d  ip=%-12v |QDSet|=%d  IPSpace=%d addrs  +QuorumSpace=%d addrs\n",
			h, ip, p.QDSetSize(h), p.OwnSpaceSize(h), p.EffectiveSpaceSize(h)-p.OwnSpaceSize(h))
	}
	if conflicts := p.AddressConflicts(); len(conflicts) != 0 {
		panic(fmt.Sprint("address conflicts: ", conflicts))
	}
	fmt.Println("no address conflicts")

	m := res.Metrics()
	lat := m.Summarize("config_latency_hops")
	fmt.Printf("configuration latency: mean %.1f hops (p95 %.1f, max %.0f)\n", lat.Mean, lat.P95, lat.Max)
	fmt.Printf("traffic: config=%d hops, hello=%d transmissions\n",
		m.Hops(quorumconf.CatConfig), m.Hops(quorumconf.CatHello))
	// Output:
	// configured 50/50 nodes
	// cluster heads: [12 15 17 18 26 29]
	//   head  12  ip=10.0.0.1     |QDSet|=6  IPSpace=32 addrs  +QuorumSpace=3552 addrs
	//   head  15  ip=10.0.2.1     |QDSet|=5  IPSpace=512 addrs  +QuorumSpace=512 addrs
	//   head  17  ip=10.0.1.1     |QDSet|=5  IPSpace=256 addrs  +QuorumSpace=768 addrs
	//   head  18  ip=10.0.0.129   |QDSet|=3  IPSpace=128 addrs  +QuorumSpace=800 addrs
	//   head  26  ip=10.0.0.65    |QDSet|=3  IPSpace=64 addrs  +QuorumSpace=800 addrs
	//   head  29  ip=10.0.0.33    |QDSet|=3  IPSpace=32 addrs  +QuorumSpace=800 addrs
	// no address conflicts
	// configuration latency: mean 8.6 hops (p95 20.1, max 26)
	// traffic: config=1664 hops, hello=9424 transmissions
}

// Run all four protocols — the quorum protocol and the three stateful
// baselines the paper evaluates against — on one workload and print a
// side-by-side cost table: the experiment harness in miniature.
func Example_comparison() {
	sc := quorumconf.Scenario{
		Seed:              21,
		NumNodes:          80,
		TransmissionRange: 150,
		Speed:             20,
		ArrivalInterval:   2 * time.Second,
		DepartFraction:    0.25,
		AbruptFraction:    0.3,
		SettleTime:        120 * time.Second,
	}
	space := quorumconf.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023}

	builders := []struct {
		name  string
		build quorumconf.BuildFunc
	}{
		{"quorum", func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
			return quorumconf.NewQuorum(rt, quorumconf.QuorumParams{Space: space})
		}},
		{"manetconf", func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
			return quorumconf.NewMANETconf(rt, quorumconf.MANETconfParams{Space: space})
		}},
		{"buddy", func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
			return quorumconf.NewBuddy(rt, quorumconf.BuddyParams{Space: space})
		}},
		{"ctree", func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
			return quorumconf.NewCTree(rt, quorumconf.CTreeParams{Space: space})
		}},
	}

	fmt.Printf("workload: %d nodes, tr=%.0fm, 20 m/s, %d%% departures (%d%% abrupt)\n\n",
		sc.NumNodes, sc.TransmissionRange, int(sc.DepartFraction*100), int(sc.AbruptFraction*100))
	fmt.Printf("%-10s %10s %12s %12s %12s %12s %12s\n",
		"protocol", "latency", "config", "sync", "departure", "reclaim", "configured")
	fmt.Printf("%-10s %10s %12s %12s %12s %12s\n",
		"", "(hops)", "(hops)", "(hops)", "(hops)", "(hops)")

	for _, b := range builders {
		res, err := quorumconf.RunScenario(sc, b.build)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", b.name, err))
		}
		m := res.Metrics()
		configured := 0
		for i := quorumconf.NodeID(0); i < quorumconf.NodeID(sc.NumNodes); i++ {
			if res.Proto.IsConfigured(i) {
				configured++
			}
		}
		fmt.Printf("%-10s %10.1f %12d %12d %12d %12d %9d/%d\n",
			b.name,
			m.Summarize("config_latency_hops").Mean,
			m.Hops(quorumconf.CatConfig),
			m.Hops(quorumconf.CatSync),
			m.Hops(quorumconf.CatDeparture),
			m.Hops(quorumconf.CatReclamation),
			configured, sc.NumNodes)
	}
	fmt.Println("\nThe quorum protocol pays a modest, local quorum cost per")
	fmt.Println("configuration; MANETconf floods per configuration, the buddy")
	fmt.Println("scheme floods per sync period, and the C-tree reports to a")
	fmt.Println("single root that is also its single point of failure.")
	// Output:
	// workload: 80 nodes, tr=150m, 20 m/s, 25% departures (30% abrupt)
	//
	// protocol      latency       config         sync    departure      reclaim   configured
	//                (hops)       (hops)       (hops)       (hops)       (hops)
	// quorum            9.6         3617         1841          262         1046        60/80
	// manetconf        11.1        13436            0          634            0        60/80
	// buddy             1.8          120        70941          653          558        60/80
	// ctree             3.2          232          775           29          466        60/80
	//
	// The quorum protocol pays a modest, local quorum cost per
	// configuration; MANETconf floods per configuration, the buddy
	// scheme floods per sync period, and the C-tree reports to a
	// single root that is also its single point of failure.
}

// A crowd of nodes enters the network at one spot and exhausts the local
// cluster head's IPSpace: the paper's motivating workload for address
// borrowing (§V-A). With partial replication the head keeps serving from
// its QuorumSpace, the replicas of its adjacent heads' blocks; without it,
// the head can only relay through its configurer. A backbone first grows
// whose block splits leave each head a small IPSpace, then a 30-node wave
// arrives at one head, with borrowing on and off.
func Example_joinwave() {
	for _, borrowing := range []bool{true, false} {
		rt, err := quorumconf.NewRuntime(quorumconf.RuntimeConfig{Seed: 7, TransmissionRange: 150})
		if err != nil {
			panic(err)
		}
		p, err := quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
			// 64 addresses split across the backbone heads: the wave's
			// target head ends up with a block far smaller than the wave.
			Space:            quorumconf.Block{Lo: 1, Hi: 64},
			DisableBorrowing: !borrowing,
		})
		if err != nil {
			panic(err)
		}
		arrive := func(at time.Duration, id quorumconf.NodeID, x, y float64) {
			rt.Sim.ScheduleAt(at, func() {
				if err := rt.Topo.Add(id, mobility.Static(mobility.Point{X: x, Y: y})); err != nil {
					panic(err)
				}
				rt.Net.InvalidateSnapshot()
				p.NodeArrived(id)
			})
		}

		// A backbone line. Heads form every ~3 hops and each split halves
		// the available block: 64 -> 32 -> 16 -> 8.
		for i := 0; i < 10; i++ {
			arrive(time.Duration(i*10)*time.Second, quorumconf.NodeID(i), float64(i)*100, 0)
		}
		// A 30-node wave around the last head's position (x=900), whose
		// block is the smallest.
		rng := rt.Sim.Rand()
		for i := 0; i < 30; i++ {
			x := 850 + rng.Float64()*120
			y := -80 + rng.Float64()*160
			arrive(120*time.Second+time.Duration(i)*2*time.Second, quorumconf.NodeID(100+i), x, y)
		}
		if err := rt.Sim.RunUntil(400 * time.Second); err != nil {
			panic(err)
		}

		wave := 0
		for i := 0; i < 30; i++ {
			if p.IsConfigured(quorumconf.NodeID(100 + i)) {
				wave++
			}
		}
		if len(p.AddressConflicts()) != 0 {
			panic("address conflicts detected")
		}
		fmt.Printf("borrowing=%-5v wave configured %2d/30, borrowed=%2d, agent relays=%d, nacks=%d\n",
			borrowing, wave,
			rt.Coll.Counter("borrowed"), rt.Coll.Counter("agent_forwards"),
			rt.Coll.Counter("config_nacks"))
	}
	fmt.Println("\nPartial replication extends the loaded head's usable space with")
	fmt.Println("its neighbors' replicas, so the same wave configures faster and")
	fmt.Println("without relaying every request to the configurer.")
	// Output:
	// borrowing=true  wave configured 30/30, borrowed=23, agent relays=0, nacks=0
	// borrowing=false wave configured 12/30, borrowed= 0, agent relays=1425, nacks=1420
	//
	// Partial replication extends the loaded head's usable space with
	// its neighbors' replicas, so the same wave configures faster and
	// without relaying every request to the configurer.
}

// A scripted network partition and merge (§V-C). A cluster head and its
// member drift away from the backbone. Each side's head is then left
// without an adjacent head, so both apply the isolated-head rule: each
// restarts as the first head of a new network, with the whole address
// space, a new partition tag (lowest address plus founder nonce) and fresh
// addresses for the common nodes around it. The tags printed below show
// both restarts. When the pair returns, the network with the larger tag
// gives up its addresses and rejoins the other one node at a time,
// restoring a single conflict-free network.
func Example_partition() {
	rt, err := quorumconf.NewRuntime(quorumconf.RuntimeConfig{Seed: 3, TransmissionRange: 150})
	if err != nil {
		panic(err)
	}
	p, err := quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
		Space: quorumconf.Block{Lo: 1, Hi: 256},
	})
	if err != nil {
		panic(err)
	}

	arrive := func(at time.Duration, id quorumconf.NodeID, m mobility.Model) {
		rt.Sim.ScheduleAt(at, func() {
			if err := rt.Topo.Add(id, m); err != nil {
				panic(err)
			}
			rt.Net.InvalidateSnapshot()
			p.NodeArrived(id)
		})
	}
	static := func(x, y float64) mobility.Model { return mobility.Static(mobility.Point{X: x, Y: y}) }
	// Drift 3km away between t=100s and t=140s, stay until t=320s, return.
	awayAndBack := func(x, y float64) mobility.Model {
		m, err := mobility.NewPath(
			[]time.Duration{100 * time.Second, 140 * time.Second, 320 * time.Second, 360 * time.Second},
			[]mobility.Point{{X: x, Y: y}, {X: x + 3000, Y: y}, {X: x + 3000, Y: y}, {X: x, Y: y}},
		)
		if err != nil {
			panic(err)
		}
		return m
	}

	// Backbone: head 0 with commons 1 and 2 relaying toward x=300.
	arrive(0, 0, static(0, 0))
	arrive(20*time.Second, 1, static(100, 0))
	arrive(40*time.Second, 2, static(200, 0))
	// Head 3 and member 4 will drift off together.
	arrive(50*time.Second, 3, awayAndBack(300, 0))
	arrive(70*time.Second, 4, awayAndBack(320, 60))

	report := func(label string) {
		fmt.Printf("%-22s", label)
		for id := quorumconf.NodeID(0); id <= 4; id++ {
			if ip, ok := p.IP(id); ok {
				tag, _ := p.NetworkTag(id)
				fmt.Printf("  n%d=%v(net %v)", id, ip, tag)
			} else {
				fmt.Printf("  n%d=<unconfigured>", id)
			}
		}
		fmt.Println()
	}
	checkpoints := []struct {
		at    time.Duration
		label string
	}{
		{90 * time.Second, "formed:"},
		{200 * time.Second, "partitioned:"},
		{300 * time.Second, "island stabilized:"},
		{500 * time.Second, "merged:"},
	}
	for _, cp := range checkpoints {
		rt.Sim.ScheduleAt(cp.at, func() { report(cp.label) })
	}
	if err := rt.Sim.RunUntil(520 * time.Second); err != nil {
		panic(err)
	}

	if conflicts := p.AddressConflicts(); len(conflicts) != 0 {
		panic(fmt.Sprint("conflicts after merge: ", conflicts))
	}
	tags := map[quorumconf.NetTag]bool{}
	for id := quorumconf.NodeID(0); id <= 4; id++ {
		if tag, ok := p.NetworkTag(id); ok {
			tags[tag] = true
		}
	}
	fmt.Printf("\nfinal state: %d network(s), no address conflicts\n", len(tags))
	fmt.Printf("isolated restarts: %d, merge rejoins: %d\n",
		rt.Coll.Counter("isolated_restarts"), rt.Coll.Counter("merge_rejoins"))
	// Output:
	// formed:                 n0=0.0.0.1(net 0.0.0.1#b850c8c0)  n1=0.0.0.2(net 0.0.0.1#b850c8c0)  n2=0.0.0.3(net 0.0.0.1#b850c8c0)  n3=0.0.0.129(net 0.0.0.1#b850c8c0)  n4=0.0.0.130(net 0.0.0.1#b850c8c0)
	// partitioned:            n0=0.0.0.1(net 0.0.0.1#38151457)  n1=0.0.0.2(net 0.0.0.1#38151457)  n2=0.0.0.3(net 0.0.0.1#38151457)  n3=0.0.0.1(net 0.0.0.1#5338f770)  n4=0.0.0.2(net 0.0.0.1#5338f770)
	// island stabilized:      n0=0.0.0.1(net 0.0.0.1#38151457)  n1=0.0.0.2(net 0.0.0.1#38151457)  n2=0.0.0.3(net 0.0.0.1#38151457)  n3=0.0.0.1(net 0.0.0.1#5338f770)  n4=0.0.0.2(net 0.0.0.1#5338f770)
	// merged:                 n0=0.0.0.1(net 0.0.0.1#38151457)  n1=0.0.0.2(net 0.0.0.1#38151457)  n2=0.0.0.3(net 0.0.0.1#38151457)  n3=0.0.0.129(net 0.0.0.1#38151457)  n4=0.0.0.130(net 0.0.0.1#38151457)
	//
	// final state: 1 network(s), no address conflicts
	// isolated restarts: 2, merge rejoins: 5
}

// An abrupt-leave storm (§IV-D, Figs 13 and 14). A network forms, then a
// third of the nodes — cluster heads among them — crash without returning
// their addresses. The survivors detect the silent heads (Td/Tr timers),
// shrink their quorum sets, probe with REP_REQ and reclaim the leaked
// address space. Partial replication keeps the dead heads' IP state at
// their QDSet replicas, so newcomers are still configured out of it.
func Example_reclaim() {
	sc := quorumconf.Scenario{
		Seed:              11,
		NumNodes:          80,
		TransmissionRange: 150,
		Speed:             0,
		DepartFraction:    0.33,
		AbruptFraction:    1.0, // every departure is a crash
		SettleTime:        240 * time.Second,
	}
	res, err := quorumconf.PrepareScenario(sc, func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
		return quorumconf.NewQuorum(rt, quorumconf.QuorumParams{
			Space: quorumconf.Block{Lo: 1, Hi: 512},
		})
	})
	if err != nil {
		panic(err)
	}
	p := res.Proto.(*quorumconf.Quorum)

	// Late arrivals that depend on reclaimed space.
	for i := 0; i < 5; i++ {
		id := quorumconf.NodeID(1000 + i)
		at := res.Horizon - 60*time.Second + time.Duration(i)*5*time.Second
		pos := mobility.Point{X: 450 + float64(i)*20, Y: 500}
		res.RT.Sim.ScheduleAt(at, func() {
			if err := res.RT.Topo.Add(id, mobility.Static(pos)); err != nil {
				return
			}
			res.RT.Net.InvalidateSnapshot()
			p.NodeArrived(id)
		})
	}
	if err := res.RT.Sim.RunUntil(res.Horizon); err != nil {
		panic(err)
	}

	m := res.Metrics()
	fmt.Printf("crashed nodes:         %d\n", m.Counter("abrupt_departures"))
	fmt.Printf("quorum shrinks:        %d\n", m.Counter("quorum_shrinks"))
	fmt.Printf("reclamations:          %d\n", m.Counter("reclamations"))
	fmt.Printf("addresses reclaimed:   %d\n", m.Counter("addresses_reclaimed"))
	fmt.Printf("reclamation traffic:   %d hops\n", m.Hops(quorumconf.CatReclamation))
	fmt.Printf("replica recruits:      %d\n", m.Counter("quorum_recruits"))

	late := 0
	for i := 0; i < 5; i++ {
		if p.IsConfigured(quorumconf.NodeID(1000 + i)) {
			late++
		}
	}
	fmt.Printf("late arrivals configured after the storm: %d/5\n", late)
	if conflicts := p.AddressConflicts(); len(conflicts) != 0 {
		panic(fmt.Sprint("address conflicts: ", conflicts))
	}
	fmt.Println("no address conflicts — reclaimed space reused safely")
	// Output:
	// crashed nodes:         26
	// quorum shrinks:        40
	// reclamations:          18
	// addresses reclaimed:   61
	// reclamation traffic:   615 hops
	// replica recruits:      48
	// late arrivals configured after the storm: 5/5
	// no address conflicts — reclaimed space reused safely
}

// Attach a tracer to a run and read its events back from an in-memory
// ring. The runtime stamps protocol events with virtual time. An event it
// leaves at zero takes the tracer's own clock instead: those of the first
// instant, and the health monitor's, which reach the tracer unstamped (the
// health_check below). A nil clock would stamp them with wall time; this
// example passes a clock that reads zero, as quorumsim -trace does, so it
// prints the same on every run.
func Example_tracing() {
	ring := quorumconf.NewTraceRing(1024)
	sc := quorumconf.Scenario{
		Seed:              1,
		NumNodes:          10,
		TransmissionRange: 300,
		ArrivalInterval:   5 * time.Second,
		Tracer:            quorumconf.NewTracer(func() time.Duration { return 0 }, ring),
	}
	_, err := quorumconf.RunScenario(sc, func(rt *quorumconf.Runtime) (quorumconf.Protocol, error) {
		return quorumconf.NewQuorum(rt, quorumconf.QuorumParams{Space: quorumconf.Block{Lo: 1, Hi: 64}})
	})
	if err != nil {
		panic(err)
	}
	for _, e := range ring.Snapshot()[:8] {
		fmt.Printf("%-4v %-16v node=%d addr=%v", e.Time, e.Kind, e.Node, e.Addr)
		if e.Detail != "" {
			fmt.Printf(" (%s)", e.Detail)
		}
		fmt.Println()
	}
	// Output:
	// 0s   node_arrived     node=0 addr=0.0.0.0
	// 5s   node_arrived     node=1 addr=0.0.0.0
	// 7s   head_elected     node=0 addr=0.0.0.1 (first)
	// 7s   node_configured  node=0 addr=0.0.0.1 (head)
	// 10s  node_arrived     node=2 addr=0.0.0.0
	// 0s   health_check     node=0 addr=0.0.0.0 (rf=1/1)
	// 12s  head_elected     node=1 addr=0.0.0.1 (first)
	// 12s  node_configured  node=1 addr=0.0.0.1 (head)
}
