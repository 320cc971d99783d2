// Package metrics accumulates the cost and latency measurements the paper
// reports: message counts and hop counts per traffic category, plus named
// sample series (for example per-configuration latency in hops).
//
// The collector is used from the single-threaded simulation loop and is not
// safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Category classifies protocol traffic the way the paper's figures slice it.
type Category int

// Traffic categories. Hello beacons are kept separate so figures can
// include or exclude the beaconing baseline (see DESIGN.md §6).
const (
	CatConfig      Category = iota + 1 // address configuration exchanges
	CatMovement                        // location updates driven by mobility
	CatDeparture                       // graceful departure exchanges
	CatReclamation                     // address reclamation exchanges
	CatSync                            // periodic state synchronization (baselines)
	CatHello                           // hello beacons
	CatPartition                       // partition/merge handling
	numCategories
)

var categoryNames = map[Category]string{
	CatConfig:      "config",
	CatMovement:    "movement",
	CatDeparture:   "departure",
	CatReclamation: "reclamation",
	CatSync:        "sync",
	CatHello:       "hello",
	CatPartition:   "partition",
}

// String returns the category's lower-case name.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Categories returns all defined categories in declaration order.
func Categories() []Category {
	cats := make([]Category, 0, int(numCategories)-1)
	for c := CatConfig; c < numCategories; c++ {
		cats = append(cats, c)
	}
	return cats
}

// Collector accumulates counters and samples for one simulation run.
// The zero value is ready to use.
type Collector struct {
	hops     map[Category]int64
	messages map[Category]int64
	counters map[string]int64
	samples  map[string][]float64
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

func (c *Collector) ensure() {
	if c.hops == nil {
		c.hops = make(map[Category]int64)
		c.messages = make(map[Category]int64)
		c.counters = make(map[string]int64)
		c.samples = make(map[string][]float64)
	}
}

// AddTraffic records one message of the given category that traversed hops
// wireless hops.
func (c *Collector) AddTraffic(cat Category, hops int) {
	c.ensure()
	c.hops[cat] += int64(hops)
	c.messages[cat]++
}

// AddTransmissions records n link-layer transmissions (for floods, where
// every node in the component rebroadcasts once) under one logical message.
func (c *Collector) AddTransmissions(cat Category, n int) {
	c.ensure()
	c.hops[cat] += int64(n)
	c.messages[cat]++
}

// Hops returns the accumulated hop count for a category.
func (c *Collector) Hops(cat Category) int64 { return c.hops[cat] }

// Messages returns the number of logical messages recorded for a category.
func (c *Collector) Messages(cat Category) int64 { return c.messages[cat] }

// TotalHops sums hop counts over the given categories; with no arguments it
// sums every category except hello beacons (the paper's overhead figures
// exclude the beacon baseline).
func (c *Collector) TotalHops(cats ...Category) int64 {
	if len(cats) == 0 {
		for _, cat := range Categories() {
			if cat != CatHello {
				cats = append(cats, cat)
			}
		}
	}
	var sum int64
	for _, cat := range cats {
		sum += c.hops[cat]
	}
	return sum
}

// Inc increments a named counter by one.
func (c *Collector) Inc(name string) { c.Add(name, 1) }

// Add increments a named counter by delta.
func (c *Collector) Add(name string, delta int64) {
	c.ensure()
	c.counters[name] += delta
}

// Counter returns the value of a named counter (zero if never touched).
func (c *Collector) Counter(name string) int64 { return c.counters[name] }

// Observe appends one value to a named sample series.
func (c *Collector) Observe(name string, v float64) {
	c.ensure()
	c.samples[name] = append(c.samples[name], v)
}

// Counters returns a copy of all named counters.
func (c *Collector) Counters() map[string]int64 {
	out := make(map[string]int64, len(c.counters))
	for n, v := range c.counters {
		out[n] = v
	}
	return out
}

// Summary describes a sample series.
type Summary struct {
	Count          int
	Mean, Min, Max float64
	P50, P95       float64
}

// Summarize computes summary statistics for the named series. A series with
// no observations yields a zero Summary with Count 0.
func (c *Collector) Summarize(name string) Summary {
	s := c.samples[name]
	if len(s) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(s))
	copy(sorted, s)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		P50:   quantile(sorted, 0.50),
		P95:   quantile(sorted, 0.95),
	}
}

// quantile returns the q-quantile of an ascending-sorted slice using linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Merge adds every counter, hop count and sample from other into c.
// Useful for aggregating repeated simulation rounds.
func (c *Collector) Merge(other *Collector) {
	if other == nil {
		return
	}
	c.ensure()
	for cat, v := range other.hops {
		c.hops[cat] += v
	}
	for cat, v := range other.messages {
		c.messages[cat] += v
	}
	for name, v := range other.counters {
		c.counters[name] += v
	}
	for name, s := range other.samples {
		c.samples[name] = append(c.samples[name], s...)
	}
}

// Reset clears all recorded data.
func (c *Collector) Reset() {
	c.hops = nil
	c.messages = nil
	c.counters = nil
	c.samples = nil
}

// String renders a compact human-readable dump, stable across runs.
func (c *Collector) String() string {
	var b strings.Builder
	for _, cat := range Categories() {
		if c.messages[cat] == 0 && c.hops[cat] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %d msgs / %d hops\n", cat, c.messages[cat], c.hops[cat])
	}
	names := make([]string, 0, len(c.counters))
	for n := range c.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s: %d\n", n, c.counters[n])
	}
	return b.String()
}
