package experiment

import (
	"strings"
	"testing"
	"time"

	"quorumconf/internal/obs"
)

// TestLookupKeys pins the catalog's key space: every listed key and alias
// resolves, IDs are unique, and an unknown key resolves to nothing.
func TestLookupKeys(t *testing.T) {
	_, keys := Lookup("")
	seen := make(map[string]bool)
	for _, entry := range keys {
		for _, k := range strings.Split(entry, "/") {
			if seen[k] {
				t.Errorf("key %q listed twice", k)
			}
			seen[k] = true
			if run, _ := Lookup(k); run == nil {
				t.Errorf("listed key %q does not resolve", k)
			}
		}
	}
	for _, k := range []string{"5", "fig14", "ablation-td", "loss", "byz", "all", "ablations", "ablation"} {
		if !seen[k] {
			t.Errorf("key %q missing from %v", k, keys)
		}
	}
	if run, _ := Lookup("fig99"); run != nil {
		t.Error("unknown key resolved")
	}
}

// TestGroupsFollowCatalog pins that the groups "all" and "ablations" hold
// their rows in catalog order.
func TestGroupsFollowCatalog(t *testing.T) {
	var paper, ablations []string
	for _, r := range catalog(Config{}) {
		switch r.group {
		case "all":
			paper = append(paper, r.id)
		case "ablations":
			ablations = append(ablations, r.id)
		}
	}
	if got := strings.Join(paper, " "); got != "fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14" {
		t.Errorf("paper group = %s", got)
	}
	if got := strings.Join(ablations, " "); got != "ablation-dlv ablation-borrow ablation-alloc ablation-td" {
		t.Errorf("ablations group = %s", got)
	}
}

// TestFig12And13Traced pins that the rounds of Figs 12 and 13 run through
// runRound like every other round, so Config.Tracer sees their events.
func TestFig12And13Traced(t *testing.T) {
	for _, id := range []string{"fig12", "fig13"} {
		ring := obs.NewRing(64)
		cfg := tinyConfig()
		cfg.MidSize = 40
		cfg.Ranges = []float64{150}
		cfg.AbruptFractions = []float64{0.4}
		cfg.Tracer = obs.NewTracer(func() time.Duration { return 0 }, ring)
		figure(t, cfg, id)
		if ring.Len() == 0 {
			t.Errorf("%s: rounds emitted no trace events", id)
		}
	}
}
