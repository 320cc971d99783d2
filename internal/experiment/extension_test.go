package experiment

import "testing"

func TestExtensionLossTolerance(t *testing.T) {
	cfg := tinyConfig()
	cfg.MidSize = 60
	f := figure(t, cfg, "ext-loss")
	conf := seriesByName(t, f, "configured fraction")
	if conf.Points[0].Y < 0.95 {
		t.Errorf("lossless configured fraction = %.2f, want ~1", conf.Points[0].Y)
	}
	// Graceful degradation: even at 20% per-hop loss most nodes configure.
	for _, p := range conf.Points {
		if p.X <= 0.2 && p.Y < 0.7 {
			t.Errorf("configured fraction %.2f at loss %.2f, want graceful degradation", p.Y, p.X)
		}
	}
	lat := seriesByName(t, f, "mean latency (hops)")
	if lat.Points[0].Y <= 0 {
		t.Error("no latency recorded")
	}
}
