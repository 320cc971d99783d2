package experiment

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/workload"
)

// A row is one entry of the figure catalog: a sweep over an x axis, the
// arms run at every x, and how their rounds reduce to the row's figure.
// sweep (parallel.go) runs every row.
type row struct {
	id     string   // Figure ID and quorumsim -fig key
	keys   []string // further -fig keys
	group  string   // "all" (the paper's figures), "ablations" or ""
	title  string
	xlabel string
	ylabel string

	xs       []float64
	scenario func(x float64) workload.Scenario
	arms     []arm
	// bySeries runs the cells arm by arm rather than x by x: the order in
	// which Fig 7 has always run its rounds, which its serial trace shows.
	bySeries bool

	// metric is what every arm without its own measure reads from a round,
	// and reduce turns its rounds into one point per x: the figure then has
	// one series per arm. plot, when set, builds the figures instead.
	metric func(*workload.Result) float64
	reduce reducer
	plot   func(g *grid) []Figure
}

// measureMetric is the measure of the arms that read the row's metric.
func (r *row) measureMetric(res *workload.Result, _ workload.Scenario) []float64 {
	return []float64{r.metric(res)}
}

// An arm is one protocol variant run at every x of a row.
type arm struct {
	name  string
	build builder
	// at adjusts the row's scenario for this arm (Fig 7's per-series
	// transmission range).
	at func(sc *workload.Scenario)
	// measure reads the round's metrics after the horizon (default: the
	// row's metric). kill, when set, runs instead one second before the
	// horizon and returns them; Fig 13 kills heads there.
	measure measure
	kill    func(res *workload.Result, x float64) []float64
}

// measure reads one round's metrics; sc is the round's scenario.
type measure func(res *workload.Result, sc workload.Scenario) []float64

// groups are the catalog keys that run several rows, with their aliases.
var groups = [][]string{{"all"}, {"ablations", "ablation"}}

// net is the scenario most rows start from: nn nodes arriving at the
// configured interval with tr = 150m, moving at speed.
func (c Config) net(nn int, speed float64) workload.Scenario {
	return workload.Scenario{NumNodes: nn, TransmissionRange: 150, Speed: speed, ArrivalInterval: c.ArrivalInterval}
}

// catalog lists every figure the package produces, in paper order, for a
// defaulted Config.
func catalog(c Config) []row {
	sizes := floats(c.Sizes)
	mobile := func(x float64) workload.Scenario { return c.net(int(x), 20) }
	churn := func(depart, abrupt float64, settle time.Duration) func(float64) workload.Scenario {
		return func(x float64) workload.Scenario {
			sc := c.net(int(x), 20)
			sc.DepartFraction, sc.AbruptFraction, sc.SettleTime = depart, abrupt, settle
			return sc
		}
	}
	abrupt := churn(0.4, 1, 120*time.Second)
	uponLeave := c.quorum(func(p *core.Params, _ float64) { p.UponLeaveOnly = true })
	perRange := make([]arm, len(c.Ranges))
	for i, tr := range c.Ranges {
		perRange[i] = arm{name: fmt.Sprintf("tr=%gm", tr), build: c.quorum(nil), at: func(sc *workload.Scenario) { sc.TransmissionRange = tr }}
	}
	// Borrowing only matters when the serving heads' own blocks are smaller
	// than the join wave: size the space tightly (just enough addresses for
	// everyone) and spread the wave over enough area that several heads
	// form and split the space between them.
	tight := func(p *core.Params, x float64) {
		nn := int(x)
		p.Space = addrspace.Block{Lo: 1, Hi: addrspace.Addr(nn + nn/8 + 2)}
	}
	spot := mobility.Point{X: 500, Y: 500}
	return []row{
		// Figure 5: the paper reports the quorum protocol cutting
		// MANETconf's latency roughly in half.
		{id: "fig5", keys: []string{"5"}, group: "all",
			title: "Configuration latency vs network size (tr=150m)", xlabel: "nodes", ylabel: "latency (hops)",
			xs: sizes, scenario: mobile,
			arms:   []arm{{name: "quorum", build: c.quorum(nil)}, {name: "manetconf", build: c.manetconf()}},
			metric: meanLatency, reduce: meanErr},
		// Figure 6: the quorum protocol stays below ~10 hops across ranges
		// while MANETconf stays above ~15.
		{id: "fig6", keys: []string{"6"}, group: "all",
			title:  fmt.Sprintf("Configuration latency vs transmission range (nn=%d)", c.MidSize),
			xlabel: "range (m)", ylabel: "latency (hops)",
			xs: c.Ranges, scenario: func(x float64) workload.Scenario {
				sc := c.net(c.MidSize, 20)
				sc.TransmissionRange = x
				return sc
			},
			arms:   []arm{{name: "quorum", build: c.quorum(nil)}, {name: "manetconf", build: c.manetconf()}},
			metric: meanLatency, reduce: meanErr},
		// Figure 7: the quorum protocol's latency over the (range x size)
		// grid, one series per range.
		{id: "fig7", keys: []string{"7"}, group: "all",
			title: "Quorum configuration latency vs size, per transmission range", xlabel: "nodes", ylabel: "latency (hops)",
			xs: sizes, scenario: mobile, arms: perRange, bySeries: true,
			metric: meanLatency, reduce: mean},
		// Figure 8: configuration plus whatever state synchronization a
		// protocol needs to keep configuring. The buddy scheme's cheap
		// splits are swamped by its global table sync, so its total grows
		// superlinearly while the quorum protocol stays local.
		{id: "fig8", keys: []string{"8"}, group: "all",
			title: "Configuration message overhead vs network size (tr=150m)", xlabel: "nodes", ylabel: "overhead (hops)",
			xs: sizes, scenario: mobile,
			arms:   []arm{{name: "quorum", build: c.quorum(nil)}, {name: "buddy", build: c.buddy()}},
			metric: hops(metrics.CatConfig, metrics.CatSync), reduce: meanErr},
		// Figure 9: half the nodes depart gracefully; the buddy scheme
		// floods a table update per departure while the quorum protocol
		// returns each address locally.
		{id: "fig9", keys: []string{"9"}, group: "all",
			title: "Departure message overhead vs network size (tr=150m)", xlabel: "nodes", ylabel: "overhead (hops)",
			xs: sizes, scenario: churn(0.5, 0, 0),
			arms:   []arm{{name: "quorum", build: c.quorum(nil)}, {name: "buddy", build: c.buddy()}},
			metric: hops(metrics.CatDeparture), reduce: meanErr},
		// Figure 10: movement, departure and periodic upkeep at 20 m/s,
		// for both location-update schemes and the C-tree scheme.
		{id: "fig10", keys: []string{"10"}, group: "all",
			title: "Maintenance overhead (movement+departure) vs network size, 20 m/s", xlabel: "nodes", ylabel: "overhead (hops)",
			xs: sizes, scenario: churn(0.3, 0, 120*time.Second),
			arms: []arm{
				{name: "quorum/periodic", build: c.quorum(nil)},
				{name: "quorum/upon-leave", build: uponLeave},
				{name: "ctree", build: c.ctree()},
			},
			metric: hops(metrics.CatMovement, metrics.CatDeparture, metrics.CatSync), reduce: meanErr},
		// Figure 11: a node drifting more than three hops from its
		// configurer sends UPDATE_LOC, so movement traffic grows with
		// speed; the upon-leave scheme stays at zero.
		{id: "fig11", keys: []string{"11"}, group: "all",
			title: "Movement overhead vs node speed (nn=150)", xlabel: "speed (m/s)", ylabel: "overhead (hops)",
			xs: c.Speeds, scenario: func(x float64) workload.Scenario {
				sc := c.net(150, x)
				sc.SettleTime = 120 * time.Second
				return sc
			},
			arms:   []arm{{name: "quorum/periodic", build: c.quorum(nil)}, {name: "quorum/upon-leave", build: uponLeave}},
			metric: hops(metrics.CatMovement), reduce: meanErr},
		// Figure 12: partial replication lets a head serve from IPSpace
		// plus QuorumSpace; the paper reports up to 5.5x the
		// coordinator-only space of the C-tree scheme, growing with range.
		// Structure is measured on the formed, static network.
		{id: "fig12", keys: []string{"12"}, group: "all",
			title:  fmt.Sprintf("Quorum size and IP-space extension vs transmission range (nn=%d)", c.MidSize),
			xlabel: "range (m)", ylabel: "size / ratio",
			xs: c.Ranges, scenario: func(x float64) workload.Scenario {
				sc := c.net(c.MidSize, 0)
				sc.TransmissionRange = x
				return sc
			},
			arms: []arm{
				{name: "quorum", build: c.quorum(nil), measure: quorumStructure},
				{name: "ctree", build: c.ctree(), measure: ctreePool},
			},
			plot: fig12Plot},
		// Figure 13: a fraction of the heads leaves abruptly and at once.
		// The quorum protocol keeps a head's state while half its QDSet
		// survives; the C-tree scheme needs a live root with a fresh report.
		{id: "fig13", keys: []string{"13"}, group: "all",
			title:  fmt.Sprintf("IP state lost vs abrupt-leave fraction of heads (nn=%d)", c.MidSize),
			xlabel: "abrupt fraction", ylabel: "% state lost",
			xs: c.AbruptFractions, scenario: func(float64) workload.Scenario { return c.net(c.MidSize, 0) },
			arms: []arm{
				{name: "quorum", build: c.quorum(nil), kill: quorumKill},
				{name: "ctree", build: c.ctree(), kill: ctreeKill},
			},
			reduce: percent},
		// Figure 14: reclamation under abrupt departures, with time for
		// detection to run.
		{id: "fig14", keys: []string{"14"}, group: "all",
			title: "Address reclamation overhead vs network size", xlabel: "nodes", ylabel: "overhead (hops)",
			xs: sizes, scenario: churn(0.4, 1, 180*time.Second),
			arms:   []arm{{name: "quorum", build: c.quorum(nil)}, {name: "ctree", build: c.ctree()}},
			metric: hops(metrics.CatReclamation), reduce: meanErr},
		// Dynamic linear voting's distinguished-node tie-break rescues
		// exact-half electorates when members stop responding under abrupt
		// head churn, so disabling it should fail more ballots.
		{id: "ablation-dlv", group: "ablations",
			title: "Ballot failures with/without dynamic linear voting", xlabel: "nodes", ylabel: "failed ballots per run",
			xs: sizes, scenario: abrupt,
			arms: []arm{
				{name: "dlv on", build: c.quorum(nil)},
				{name: "dlv off", build: c.quorum(func(p *core.Params, _ float64) { p.DisableDynamicLinear = true })},
			},
			metric: counter(core.CounterBallotsFailed), reduce: mean},
		// Configuration success under a join wave (many nodes entering at
		// one spot, the paper's §V-A motivation) with QuorumSpace borrowing
		// on and off.
		{id: "ablation-borrow", group: "ablations",
			title: "Join-wave configuration success with/without borrowing", xlabel: "nodes", ylabel: "configured fraction",
			xs: sizes, scenario: func(x float64) workload.Scenario {
				sc := c.net(int(x), 0)
				sc.JoinSpot, sc.JoinRadius, sc.SettleTime = &spot, 400, 120*time.Second
				return sc
			},
			arms: []arm{
				{name: "borrowing on", build: c.quorum(tight)},
				{name: "borrowing off", build: c.quorum(func(p *core.Params, x float64) {
					tight(p, x)
					p.DisableBorrowing = true
				})},
			},
			metric: configuredFraction, reduce: mean},
		// The default nearest-head allocator against the §IV-B alternative
		// (poll nearby heads, pick the largest free block): extra polling
		// cost against better space balance.
		{id: "ablation-alloc", group: "ablations",
			title: "Nearest vs largest-block allocator selection", xlabel: "nodes", ylabel: "config overhead (hops)",
			xs: sizes, scenario: mobile,
			arms: []arm{
				{name: "nearest", build: c.quorum(nil)},
				{name: "largest-block", build: c.quorum(func(p *core.Params, _ float64) { p.LargestBlockAllocator = true })},
			},
			metric: hops(metrics.CatConfig), reduce: mean},
		// The Td shrink timeout: shorter timeouts recover configuration
		// ability faster after head failures but probe (and reclaim) more
		// aggressively. Both series come from the same rounds.
		{id: "ablation-td", group: "ablations",
			title: "Quorum shrink timeout sweep (abrupt churn)", xlabel: "Td (s)", ylabel: "hops / count",
			xs: []float64{1, 3, 6, 12}, scenario: func(float64) workload.Scenario { return abrupt(float64(c.MidSize)) },
			arms: []arm{{name: "quorum",
				build: c.quorum(func(p *core.Params, x float64) { p.Td = time.Duration(x * float64(time.Second)) }),
				measure: func(res *workload.Result, _ workload.Scenario) []float64 {
					return []float64{hops(metrics.CatReclamation)(res), counter(core.CounterBallotsFailed)(res)}
				}}},
			plot: func(g *grid) []Figure {
				return []Figure{g.figure(g.series("reclamation hops", 0, 0, mean), g.series("failed ballots", 0, 1, mean))}
			}},
		// Beyond the paper's reliable-delivery assumption (§IV-B): the
		// protocol's timers (configuration retries, quorum timeouts with
		// electorate shrink, the Td/Tr failure chain) double as loss
		// recovery, so configuration success should degrade gracefully
		// while latency climbs as retries pile up.
		{id: "ext-loss", keys: []string{"loss"},
			title:  fmt.Sprintf("Quorum protocol under per-hop message loss (nn=%d)", c.MidSize),
			xlabel: "loss rate", ylabel: "fraction / hops",
			xs: []float64{0, 0.05, 0.1, 0.2, 0.3}, scenario: func(x float64) workload.Scenario {
				sc := c.net(c.MidSize, 0)
				sc.LossRate = x
				return sc
			},
			arms: []arm{{name: "quorum", build: c.quorum(nil),
				measure: func(res *workload.Result, _ workload.Scenario) []float64 {
					return []float64{configuredFraction(res), meanLatency(res)}
				}}},
			plot: func(g *grid) []Figure {
				return []Figure{g.figure(g.series("configured fraction", 0, 0, avg), g.series("mean latency (hops)", 0, 1, avg))}
			}},
		c.byzantineRow(DefaultByzantineKs),
	}
}

// matches reports whether a quorumsim -fig key selects r.
func (r *row) matches(key string) bool {
	if key == r.id || slices.Contains(r.keys, key) {
		return true
	}
	for _, g := range groups {
		if g[0] == r.group && slices.Contains(g, key) {
			return true
		}
	}
	return false
}

// run sweeps the rows that key selects and returns their figures in
// catalog order. The rows fan out concurrently, all drawing simulation
// slots from the one admission semaphore.
func (c Config) run(key string) ([]Figure, error) {
	c.setDefaults() // create the shared semaphore before fanning out
	var rows []row
	for _, r := range catalog(c) {
		if r.matches(key) {
			rows = append(rows, r)
		}
	}
	figs := make([][]Figure, len(rows))
	err := c.parallelDo(len(rows), func(i int) error {
		var err error
		figs[i], err = c.sweep(&rows[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(figs...), nil
}

// Lookup resolves a quorumsim -fig key to the runner of what it selects: a
// catalog row by ID or alias ("fig5" or "5", "ablation-td", "ext-loss" or
// "loss", "byzantine" or "byz"), or a group ("all", "ablations"). run is
// nil for an unknown key. keys lists every key, one entry per row and
// group with its aliases joined by "/", in catalog order.
func Lookup(key string) (run func(Config) ([]Figure, error), keys []string) {
	found := false
	for _, r := range catalog(Config{}) {
		keys = append(keys, strings.Join(append([]string{r.id}, r.keys...), "/"))
		found = found || r.matches(key)
	}
	for _, g := range groups {
		keys = append(keys, strings.Join(g, "/"))
	}
	if !found {
		return nil, keys
	}
	return func(cfg Config) ([]Figure, error) { return cfg.run(key) }, keys
}

// All runs the paper's figures 5..14 and returns them in paper order.
// Table 1 is produced by Table1Trace (see trace.go) and Fig 4 by
// GenerateLayout (see layout.go).
func All(cfg Config) ([]Figure, error) { return cfg.run("all") }

// Ablations runs every ablation study.
func Ablations(cfg Config) ([]Figure, error) { return cfg.run("ablations") }

// one runs the catalog row with the given ID.
func one(cfg Config, id string) (Figure, error) {
	figs, err := cfg.run(id)
	if err != nil {
		return Figure{}, err
	}
	return figs[0], nil
}

// Fig5 reproduces Figure 5: configuration latency versus network size,
// quorum against MANETconf.
func Fig5(cfg Config) (Figure, error) { return one(cfg, "fig5") }

// Fig6 reproduces Figure 6: configuration latency versus transmission
// range, quorum against MANETconf.
func Fig6(cfg Config) (Figure, error) { return one(cfg, "fig6") }

// Fig7 reproduces Figure 7: the quorum protocol's configuration latency
// versus network size, one series per transmission range.
func Fig7(cfg Config) (Figure, error) { return one(cfg, "fig7") }

// Fig8 reproduces Figure 8: configuration message overhead versus network
// size, quorum against Mohsin–Prakash.
func Fig8(cfg Config) (Figure, error) { return one(cfg, "fig8") }

// Fig9 reproduces Figure 9: departure message overhead versus network
// size, quorum against Mohsin–Prakash.
func Fig9(cfg Config) (Figure, error) { return one(cfg, "fig9") }

// Fig10 reproduces Figure 10: maintenance message overhead versus network
// size for both location-update schemes and the C-tree scheme.
func Fig10(cfg Config) (Figure, error) { return one(cfg, "fig10") }

// Fig11 reproduces Figure 11: movement message overhead versus node speed.
func Fig11(cfg Config) (Figure, error) { return one(cfg, "fig11") }

// Fig12 reproduces Figure 12: average QDSet size and the IP-space
// extension factor versus transmission range.
func Fig12(cfg Config) (Figure, error) { return one(cfg, "fig12") }

// Fig13 reproduces Figure 13: percentage of IP state lost versus the
// fraction of cluster heads that leave abruptly and simultaneously.
func Fig13(cfg Config) (Figure, error) { return one(cfg, "fig13") }

// Fig14 reproduces Figure 14: address reclamation message overhead versus
// network size, quorum against the C-tree scheme.
func Fig14(cfg Config) (Figure, error) { return one(cfg, "fig14") }

// AblationDynamicLinear compares ballot failures with and without dynamic
// linear voting under abrupt head churn.
func AblationDynamicLinear(cfg Config) (Figure, error) { return one(cfg, "ablation-dlv") }

// AblationBorrowing measures configuration success under a join wave with
// QuorumSpace borrowing on and off.
func AblationBorrowing(cfg Config) (Figure, error) { return one(cfg, "ablation-borrow") }

// AblationAllocatorChoice compares the nearest-head allocator against the
// largest-free-block one.
func AblationAllocatorChoice(cfg Config) (Figure, error) { return one(cfg, "ablation-alloc") }

// AblationQuorumShrink sweeps the Td shrink timeout under abrupt churn.
func AblationQuorumShrink(cfg Config) (Figure, error) { return one(cfg, "ablation-td") }

// ExtensionLossTolerance sweeps a per-hop message loss rate and measures
// how well the quorum protocol still configures the network.
func ExtensionLossTolerance(cfg Config) (Figure, error) { return one(cfg, "ext-loss") }
