package experiment

import (
	"strings"
	"testing"
	"time"
)

// tinyConfig keeps test sweeps fast while preserving the qualitative
// shapes the paper reports.
// The paper's regime (50-200 nodes, 1km^2, tr=150m) keeps the network
// connected; below ~60 nodes components fragment and the latency shapes
// change, so the test sizes stay at the connected end.
func tinyConfig() Config {
	return Config{
		Rounds:          1,
		BaseSeed:        7,
		Sizes:           []int{60, 100},
		Ranges:          []float64{120, 200},
		Speeds:          []float64{10, 30},
		AbruptFractions: []float64{0.1, 0.4},
		MidSize:         100,
		ArrivalInterval: 2 * time.Second,
	}
}

func seriesByName(t *testing.T, f Figure, name string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("figure %s has no series %q (have %v)", f.ID, name, f.Series)
	return Series{}
}

// figure runs the catalog row id through Lookup, the one way in.
func figure(t *testing.T, cfg Config, id string) Figure {
	t.Helper()
	run, _ := Lookup(id)
	if run == nil {
		t.Fatalf("no catalog row %q", id)
	}
	figs, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return figs[0]
}

func TestFig5QuorumBeatsMANETconf(t *testing.T) {
	f := figure(t, tinyConfig(), "fig5")
	q := seriesByName(t, f, "quorum")
	m := seriesByName(t, f, "manetconf")
	if len(q.Points) != 2 || len(m.Points) != 2 {
		t.Fatalf("unexpected point counts: %d, %d", len(q.Points), len(m.Points))
	}
	for i := range q.Points {
		if q.Points[i].Y <= 0 {
			t.Errorf("quorum latency at nn=%v is %v, want > 0", q.Points[i].X, q.Points[i].Y)
		}
	}
	// The paper's headline holds in the connected regime (the larger size).
	last := len(q.Points) - 1
	if q.Points[last].Y >= m.Points[last].Y {
		t.Errorf("at nn=%v quorum %.2f !< manetconf %.2f (paper: ~half)",
			q.Points[last].X, q.Points[last].Y, m.Points[last].Y)
	}
}

func TestFig6QuorumLocalAcrossRanges(t *testing.T) {
	f := figure(t, tinyConfig(), "fig6")
	q := seriesByName(t, f, "quorum")
	m := seriesByName(t, f, "manetconf")
	for i := range q.Points {
		if q.Points[i].Y >= m.Points[i].Y {
			t.Errorf("at tr=%v quorum %.2f !< manetconf %.2f", q.Points[i].X, q.Points[i].Y, m.Points[i].Y)
		}
		if q.Points[i].Y > 12 {
			t.Errorf("quorum latency %.2f hops at tr=%v, want local (<12)", q.Points[i].Y, q.Points[i].X)
		}
	}
}

func TestFig7Shape(t *testing.T) {
	f := figure(t, tinyConfig(), "fig7")
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want one per range", len(f.Series))
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.Y <= 0 || p.Y > 15 {
				t.Errorf("%s at nn=%v: latency %.2f out of local range", s.Name, p.X, p.Y)
			}
		}
	}
}

func TestFig8BuddySyncDominates(t *testing.T) {
	f := figure(t, tinyConfig(), "fig8")
	q := seriesByName(t, f, "quorum")
	b := seriesByName(t, f, "buddy")
	last := len(q.Points) - 1
	if q.Points[last].Y >= b.Points[last].Y {
		t.Errorf("at nn=%v quorum %.0f !< buddy %.0f (paper: sync makes [2] lose)",
			q.Points[last].X, q.Points[last].Y, b.Points[last].Y)
	}
	// And the gap grows with network size.
	gapSmall := b.Points[0].Y - q.Points[0].Y
	gapBig := b.Points[last].Y - q.Points[last].Y
	if gapBig <= gapSmall {
		t.Errorf("overhead gap did not grow: %.0f then %.0f", gapSmall, gapBig)
	}
}

func TestFig9QuorumDepartureCheaper(t *testing.T) {
	f := figure(t, tinyConfig(), "fig9")
	q := seriesByName(t, f, "quorum")
	b := seriesByName(t, f, "buddy")
	last := len(q.Points) - 1
	if q.Points[last].Y >= b.Points[last].Y {
		t.Errorf("at nn=%v quorum departure %.0f !< buddy %.0f",
			q.Points[last].X, q.Points[last].Y, b.Points[last].Y)
	}
	if q.Points[last].Y == 0 {
		t.Error("quorum departure overhead is zero; departures not exercised")
	}
}

func TestFig10UponLeaveCheapest(t *testing.T) {
	f := figure(t, tinyConfig(), "fig10")
	p := seriesByName(t, f, "quorum/periodic")
	u := seriesByName(t, f, "quorum/upon-leave")
	c := seriesByName(t, f, "ctree")
	for i := range p.Points {
		if u.Points[i].Y >= p.Points[i].Y {
			t.Errorf("at nn=%v upon-leave %.0f !< periodic %.0f", p.Points[i].X, u.Points[i].Y, p.Points[i].Y)
		}
		if c.Points[i].Y <= 0 {
			t.Errorf("ctree maintenance zero at nn=%v", c.Points[i].X)
		}
	}
}

func TestFig11MovementGrowsWithSpeed(t *testing.T) {
	f := figure(t, tinyConfig(), "fig11")
	p := seriesByName(t, f, "quorum/periodic")
	u := seriesByName(t, f, "quorum/upon-leave")
	if p.Points[len(p.Points)-1].Y <= p.Points[0].Y {
		t.Errorf("movement overhead not increasing with speed: %v", p.Points)
	}
	for _, pt := range u.Points {
		if pt.Y != 0 {
			t.Errorf("upon-leave scheme charged movement traffic: %v", pt)
		}
	}
}

func TestFig12SpaceExtension(t *testing.T) {
	f := figure(t, tinyConfig(), "fig12")
	ext := seriesByName(t, f, "space extension (x)")
	qd := seriesByName(t, f, "avg |QDSet|")
	for i := range ext.Points {
		if ext.Points[i].Y < 1 {
			t.Errorf("extension ratio %.2f < 1 at tr=%v", ext.Points[i].Y, ext.Points[i].X)
		}
		if qd.Points[i].Y <= 0 {
			t.Errorf("no QDSet members at tr=%v", qd.Points[i].X)
		}
	}
	// Replication must extend the usable space beyond the head's own
	// block somewhere in the sweep (the paper reports up to 5.5x).
	extended := false
	for _, p := range ext.Points {
		if p.Y > 1.2 {
			extended = true
		}
	}
	if !extended {
		t.Errorf("no measurable space extension anywhere: %v", ext.Points)
	}
}

func TestFig13QuorumMoreReliable(t *testing.T) {
	f := figure(t, tinyConfig(), "fig13")
	q := seriesByName(t, f, "quorum")
	c := seriesByName(t, f, "ctree")
	for i := range q.Points {
		if q.Points[i].Y < 0 || q.Points[i].Y > 100 {
			t.Errorf("loss %% out of range: %v", q.Points[i])
		}
		if q.Points[i].Y > c.Points[i].Y {
			t.Errorf("at f=%v quorum loss %.0f%% > ctree %.0f%%", q.Points[i].X, q.Points[i].Y, c.Points[i].Y)
		}
	}
	// At the low fraction the paper reports near-total preservation.
	if q.Points[0].Y > 25 {
		t.Errorf("quorum loss %.0f%% at low abrupt fraction, want small", q.Points[0].Y)
	}
}

func TestFig14ReclamationNonZero(t *testing.T) {
	f := figure(t, tinyConfig(), "fig14")
	q := seriesByName(t, f, "quorum")
	c := seriesByName(t, f, "ctree")
	nonzeroQ, nonzeroC := false, false
	for i := range q.Points {
		if q.Points[i].Y > 0 {
			nonzeroQ = true
		}
		if c.Points[i].Y > 0 {
			nonzeroC = true
		}
	}
	if !nonzeroQ || !nonzeroC {
		t.Errorf("reclamation never charged: quorum=%v ctree=%v", q.Points, c.Points)
	}
}

func TestTable1TraceOrder(t *testing.T) {
	events, err := Table1Trace()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Type)
	}
	joined := strings.Join(kinds, " ")
	pos := 0
	for _, want := range []string{"CH_REQ", "CH_PRP", "CH_CNF", "QUORUM_CLT", "QUORUM_CFM", "CH_CFG", "CH_ACK"} {
		idx := strings.Index(joined[pos:], want)
		if idx < 0 {
			t.Fatalf("%q missing/out of order in trace %s", want, joined)
		}
		pos += idx
	}
	out := FormatTrace(events)
	if !strings.Contains(out, "CH_REQ") || !strings.Contains(out, "table1") {
		t.Errorf("FormatTrace output missing content:\n%s", out)
	}
}

func TestGenerateLayout(t *testing.T) {
	l, err := GenerateLayout(tinyConfig(), 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Nodes) != 50 {
		t.Fatalf("layout has %d nodes, want 50", len(l.Nodes))
	}
	if len(l.Heads) == 0 {
		t.Error("layout formed no heads")
	}
	if len(l.Violations) != 0 {
		t.Errorf("static formation produced neighbor heads: %v", l.Violations)
	}
	out := l.String()
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "head") {
		t.Errorf("layout render missing content:\n%.200s", out)
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 1, Y: 2}, {X: 2, Y: 3}}},
			{Name: "b", Points: []Point{{X: 1, Y: 5}}},
		},
	}
	out := f.String()
	if !strings.Contains(out, "figX") || !strings.Contains(out, "a") {
		t.Errorf("render missing header/series: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Error("short series should render a dash placeholder")
	}
}

func TestAblationBorrowingHelps(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sizes = []int{40}
	f := figure(t, cfg, "ablation-borrow")
	on := seriesByName(t, f, "borrowing on")
	off := seriesByName(t, f, "borrowing off")
	if on.Points[0].Y < off.Points[0].Y {
		t.Errorf("borrowing on %.2f < off %.2f configured fraction", on.Points[0].Y, off.Points[0].Y)
	}
	if on.Points[0].Y < 0.85 {
		t.Errorf("borrowing on configured only %.2f of nodes", on.Points[0].Y)
	}
}

func TestLayoutSVG(t *testing.T) {
	l, err := GenerateLayout(tinyConfig(), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	svg := l.SVG(150)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a complete SVG document")
	}
	if !strings.Contains(svg, "circle") {
		t.Error("SVG has no node circles")
	}
	if !strings.Contains(svg, "cluster heads") {
		t.Error("SVG missing summary text")
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "x,with comma", YLabel: "y",
		Series: []Series{
			{Name: `quote"name`, Points: []Point{{X: 1, Y: 2.5}}},
			{Name: "plain", Points: []Point{{X: 1, Y: 3}}},
		},
	}
	out := f.CSV()
	if !strings.Contains(out, `"x,with comma"`) {
		t.Errorf("comma field not quoted: %q", out)
	}
	if !strings.Contains(out, `"quote""name"`) {
		t.Errorf("quote field not escaped: %q", out)
	}
	if !strings.Contains(out, "1,2.5,3") {
		t.Errorf("data row wrong: %q", out)
	}
	if empty := (Figure{ID: "e"}).CSV(); !strings.Contains(empty, "# e") {
		t.Error("empty figure CSV missing header")
	}
}
