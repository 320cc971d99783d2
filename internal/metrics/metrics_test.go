package metrics

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var c Collector
	c.AddTraffic(CatConfig, 3)
	if c.Hops(CatConfig) != 3 {
		t.Fatalf("Hops = %d, want 3", c.Hops(CatConfig))
	}
	if c.Messages(CatConfig) != 1 {
		t.Fatalf("Messages = %d, want 1", c.Messages(CatConfig))
	}
}

func TestAddTrafficAccumulates(t *testing.T) {
	c := New()
	c.AddTraffic(CatMovement, 2)
	c.AddTraffic(CatMovement, 5)
	c.AddTraffic(CatDeparture, 1)
	if got := c.Hops(CatMovement); got != 7 {
		t.Errorf("movement hops = %d, want 7", got)
	}
	if got := c.Messages(CatMovement); got != 2 {
		t.Errorf("movement msgs = %d, want 2", got)
	}
	if got := c.Hops(CatDeparture); got != 1 {
		t.Errorf("departure hops = %d, want 1", got)
	}
}

func TestAddTransmissionsIsOneMessage(t *testing.T) {
	c := New()
	c.AddTransmissions(CatReclamation, 50)
	if c.Messages(CatReclamation) != 1 {
		t.Errorf("flood recorded as %d messages, want 1", c.Messages(CatReclamation))
	}
	if c.Hops(CatReclamation) != 50 {
		t.Errorf("flood hops = %d, want 50", c.Hops(CatReclamation))
	}
}

func TestTotalHopsExcludesHelloByDefault(t *testing.T) {
	c := New()
	c.AddTraffic(CatConfig, 10)
	c.AddTraffic(CatHello, 1000)
	c.AddTraffic(CatSync, 5)
	if got := c.TotalHops(); got != 15 {
		t.Errorf("TotalHops() = %d, want 15 (hello excluded)", got)
	}
	if got := c.TotalHops(CatHello); got != 1000 {
		t.Errorf("TotalHops(hello) = %d, want 1000", got)
	}
	if got := c.TotalHops(CatConfig, CatSync); got != 15 {
		t.Errorf("TotalHops(config,sync) = %d, want 15", got)
	}
}

func TestNamedCounters(t *testing.T) {
	c := New()
	c.Inc("configured")
	c.Inc("configured")
	c.Add("retries", 5)
	if c.Counter("configured") != 2 {
		t.Errorf("configured = %d, want 2", c.Counter("configured"))
	}
	if c.Counter("retries") != 5 {
		t.Errorf("retries = %d, want 5", c.Counter("retries"))
	}
	if c.Counter("never") != 0 {
		t.Errorf("untouched counter = %d, want 0", c.Counter("never"))
	}
}

func TestSummarize(t *testing.T) {
	c := New()
	for _, v := range []float64{4, 1, 3, 2, 5} {
		c.Observe("lat", v)
	}
	s := c.Summarize("lat")
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Mean != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min,Max = %v,%v, want 1,5", s.Min, s.Max)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	c := New()
	s := c.Summarize("missing")
	if s.Count != 0 {
		t.Errorf("Count = %d, want 0", s.Count)
	}
}

func TestSummarizeSingle(t *testing.T) {
	c := New()
	c.Observe("one", 7)
	s := c.Summarize("one")
	if s.Mean != 7 || s.P50 != 7 || s.P95 != 7 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single-sample summary = %+v, want all 7", s)
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.AddTraffic(CatConfig, 2)
	a.Observe("lat", 1)
	a.Inc("n")
	b.AddTraffic(CatConfig, 3)
	b.AddTraffic(CatHello, 7)
	b.Observe("lat", 5)
	b.Inc("n")
	a.Merge(b)
	if a.Hops(CatConfig) != 5 {
		t.Errorf("merged config hops = %d, want 5", a.Hops(CatConfig))
	}
	if a.Hops(CatHello) != 7 {
		t.Errorf("merged hello hops = %d, want 7", a.Hops(CatHello))
	}
	if a.Counter("n") != 2 {
		t.Errorf("merged counter = %d, want 2", a.Counter("n"))
	}
	if got := a.Summarize("lat"); got.Count != 2 || got.Mean != 3 {
		t.Errorf("merged samples = %+v, want Count 2 Mean 3", got)
	}
}

func TestMergeNilIsNoop(t *testing.T) {
	a := New()
	a.AddTraffic(CatConfig, 1)
	a.Merge(nil)
	if a.Hops(CatConfig) != 1 {
		t.Error("Merge(nil) altered collector")
	}
}

func TestReset(t *testing.T) {
	c := New()
	c.AddTraffic(CatConfig, 4)
	c.Observe("x", 1)
	c.Reset()
	if c.Hops(CatConfig) != 0 || c.Summarize("x").Count != 0 {
		t.Error("Reset did not clear state")
	}
	c.AddTraffic(CatConfig, 1)
	if c.Hops(CatConfig) != 1 {
		t.Error("collector unusable after Reset")
	}
}

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		CatConfig:      "config",
		CatMovement:    "movement",
		CatDeparture:   "departure",
		CatReclamation: "reclamation",
		CatSync:        "sync",
		CatHello:       "hello",
		CatPartition:   "partition",
	}
	for cat, want := range cases {
		if got := cat.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(cat), got, want)
		}
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown category String() = %q", got)
	}
}

func TestCategoriesComplete(t *testing.T) {
	cats := Categories()
	if len(cats) != 7 {
		t.Fatalf("Categories() has %d entries, want 7", len(cats))
	}
	seen := map[Category]bool{}
	for _, c := range cats {
		if seen[c] {
			t.Errorf("duplicate category %v", c)
		}
		seen[c] = true
	}
}

func TestStringStable(t *testing.T) {
	c := New()
	c.AddTraffic(CatConfig, 2)
	c.Inc("b")
	c.Inc("a")
	s1, s2 := c.String(), c.String()
	if s1 != s2 {
		t.Error("String() not stable across calls")
	}
	if !strings.Contains(s1, "config: 1 msgs / 2 hops") {
		t.Errorf("String() = %q, missing config line", s1)
	}
	ai, bi := strings.Index(s1, "a: "), strings.Index(s1, "b: ")
	if ai < 0 || bi < 0 || ai > bi {
		t.Errorf("counters not sorted in %q", s1)
	}
}

// Property: mean of Summarize lies within [Min, Max] and P50 within the
// same bounds for any non-empty series.
func TestPropertySummaryBounds(t *testing.T) {
	f := func(vals []int16) bool {
		if len(vals) == 0 {
			return true
		}
		c := New()
		for _, v := range vals {
			c.Observe("p", float64(v))
		}
		s := c.Summarize("p")
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.P95 && s.P95 <= s.Max &&
			s.Count == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Merge is additive on hops for every category.
func TestPropertyMergeAdditive(t *testing.T) {
	f := func(a, b []uint8) bool {
		ca, cb := New(), New()
		var sa, sb int64
		for _, v := range a {
			ca.AddTraffic(CatConfig, int(v))
			sa += int64(v)
		}
		for _, v := range b {
			cb.AddTraffic(CatConfig, int(v))
			sb += int64(v)
		}
		ca.Merge(cb)
		return ca.Hops(CatConfig) == sa+sb && ca.Messages(CatConfig) == int64(len(a)+len(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
