package experiment

import (
	"fmt"
	"sort"
	"strings"

	"quorumconf/internal/cluster"
	"quorumconf/internal/core"
	"quorumconf/internal/mobility"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// NodePlacement is one node of a generated layout.
type NodePlacement struct {
	ID       radio.NodeID
	Position mobility.Point
	Role     core.Role
}

// Layout reproduces Figure 4: a randomly generated network layout (100
// nodes, 1km x 1km in the paper) with the cluster structure the protocol
// formed over it.
type Layout struct {
	Area       mobility.Rect
	Nodes      []NodePlacement
	Heads      []radio.NodeID
	Violations []cluster.Violation // head pairs that are one-hop neighbors
}

// GenerateLayout builds the Figure 4 layout for the given size and seed.
func GenerateLayout(cfg Config, nn int, seed int64) (Layout, error) {
	cfg.setDefaults()
	if nn <= 0 {
		nn = 100
	}
	sc := workload.Scenario{
		Seed:              seed,
		NumNodes:          nn,
		TransmissionRange: 150,
		Speed:             0,
		ArrivalInterval:   cfg.ArrivalInterval,
	}
	res, err := workload.Run(sc, cfg.quorum(nil)(float64(nn)))
	if err != nil {
		return Layout{}, fmt.Errorf("layout: %w", err)
	}
	qp := res.Proto.(*core.Protocol)
	snap := res.RT.Topo.Snapshot(res.Horizon)
	out := Layout{Area: mobility.Rect{Width: 1000, Height: 1000}}
	for _, id := range snap.Nodes() {
		pos, _ := snap.Position(id)
		out.Nodes = append(out.Nodes, NodePlacement{ID: id, Position: pos, Role: qp.Role(id)})
	}
	out.Heads = qp.Heads()
	out.Violations = cluster.Violations(snap, out.Heads)
	sort.Slice(out.Nodes, func(i, j int) bool { return out.Nodes[i].ID < out.Nodes[j].ID })
	return out, nil
}

// SVG renders the layout as a standalone SVG document in the style of the
// paper's Figure 1/4: cluster heads as filled red circles, common nodes as
// hollow circles, and a dashed circle marking each head's 2-hop join
// radius (approximated as twice the transmission range).
func (l Layout) SVG(transmissionRange float64) string {
	const (
		pad   = 20.0
		scale = 0.6
	)
	w := l.Area.Width*scale + 2*pad
	h := l.Area.Height*scale + 2*pad
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `  <rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="white" stroke="#444"/>`+"\n",
		pad, pad, l.Area.Width*scale, l.Area.Height*scale)
	headSet := make(map[radio.NodeID]bool, len(l.Heads))
	for _, id := range l.Heads {
		headSet[id] = true
	}
	// Head coverage circles first, so nodes draw on top.
	for _, n := range l.Nodes {
		if !headSet[n.ID] {
			continue
		}
		fmt.Fprintf(&b, `  <circle cx="%.1f" cy="%.1f" r="%.1f" fill="none" stroke="#d88" stroke-dasharray="4 3" opacity="0.6"/>`+"\n",
			pad+n.Position.X*scale, pad+n.Position.Y*scale, 2*transmissionRange*scale)
	}
	for _, n := range l.Nodes {
		x, y := pad+n.Position.X*scale, pad+n.Position.Y*scale
		if headSet[n.ID] {
			fmt.Fprintf(&b, `  <circle cx="%.1f" cy="%.1f" r="6" fill="#c22" stroke="#600"/>`+"\n", x, y)
			fmt.Fprintf(&b, `  <text x="%.1f" y="%.1f" font-size="9" fill="#600">%d</text>`+"\n", x+7, y-7, n.ID)
		} else {
			fmt.Fprintf(&b, `  <circle cx="%.1f" cy="%.1f" r="3.5" fill="white" stroke="#226"/>`+"\n", x, y)
		}
	}
	fmt.Fprintf(&b, `  <text x="%.1f" y="%.1f" font-size="12" fill="#222">%d nodes, %d cluster heads</text>`+"\n",
		pad, h-5, len(l.Nodes), len(l.Heads))
	b.WriteString("</svg>\n")
	return b.String()
}

// String renders the layout as "id x y role" rows plus a summary line —
// directly plottable.
func (l Layout) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# fig4 — network layout, %d nodes, %.0fx%.0fm, %d cluster heads, %d violations\n",
		len(l.Nodes), l.Area.Width, l.Area.Height, len(l.Heads), len(l.Violations))
	fmt.Fprintf(&b, "%6s %10s %10s %-12s\n", "id", "x", "y", "role")
	for _, n := range l.Nodes {
		fmt.Fprintf(&b, "%6d %10.2f %10.2f %-12s\n", n.ID, n.Position.X, n.Position.Y, n.Role)
	}
	return b.String()
}
