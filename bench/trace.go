package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into a
// layer. Start and End are offsets from the recorder's epoch, the same
// epoch the traced daemons' tracers are re-aimed at, so daemon-side
// segments attach as children without clock translation.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op,omitempty"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// Failed marks a call that returned an error; Retried counts the
	// retries the layer reported inside the interval (ballot aborts).
	Failed  bool `json:"failed,omitempty"`
	Retried int  `json:"retried,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the tracing-off state: every method returns immediately, so untraced
// runs pay one nil check per call site.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// clock is the shared time base handed to the traced daemons' tracers.
func (r *recorder) clock() time.Duration { return time.Since(r.epoch) }

// begin opens a span at the current time and returns its ID (0 on a nil
// recorder). A span without a parent starts a new operation; a child
// inherits its parent's operation ID.
func (r *recorder) begin(parent int64, name, layer string) int64 {
	if r == nil {
		return 0
	}
	now := r.clock()
	return r.add(span{Parent: parent, Name: name, Layer: layer, Start: now, End: now})
}

// end closes the span begin returned.
func (r *recorder) end(id int64, failed bool) {
	if r == nil {
		return
	}
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Failed = failed
}

// add stores a span whose interval is already known (a daemon-side
// segment read back from the trace rings) and returns its ID.
func (r *recorder) add(s span) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = int64(len(r.spans) + 1)
	s.Op = s.ID
	if s.Parent != 0 {
		s.Op = r.spans[s.Parent-1].Op
	}
	r.spans = append(r.spans, s)
	return s.ID
}

// addSegments files the three daemon-side segments of one allocation
// under its ctl.Allocate span.
func (r *recorder) addSegments(call int64, s allocSegments) {
	r.add(span{Parent: call, Name: "daemon.forward", Layer: "daemon", Start: s.request, End: s.open})
	r.add(span{Parent: call, Name: "daemon.ballot", Layer: "daemon", Start: s.open, End: s.commit, Retried: s.aborts})
	r.add(span{Parent: call, Name: "daemon.reply", Layer: "daemon", Start: s.commit, End: s.grant})
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that child spans cover. Children are clipped to the parent
// and overlapping children are counted once, so the self times of a tree
// sum to its root's duration.
func selfTimes(spans []span) map[int64]time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[int64][]interval)
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], interval{lo, hi})
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		covered := time.Duration(0)
		edge := s.Start
		for _, iv := range ivs {
			if iv.lo > edge {
				edge = iv.lo
			}
			if iv.hi > edge {
				covered += iv.hi - edge
				edge = iv.hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanStats aggregates spans sharing a layer (or a name inside a layer).
type spanStats struct {
	Count   int     `json:"count"`
	BusyUS  float64 `json:"busy_us"`
	SelfUS  float64 `json:"self_us"`
	Failed  int     `json:"failed"`
	Retried int     `json:"retried"`
}

// layerStats is one row of layers.json.
type layerStats struct {
	spanStats
	// Spans breaks the layer down by span name.
	Spans map[string]*spanStats `json:"spans"`
	// Ratios are the layer's counter ratios from the daemons' collectors
	// (metric name -> value), measured where the work happens.
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

// layersReport is the content of layers.json.
type layersReport struct {
	// RootUS is the summed duration of the parentless spans; SelfSumUS is
	// the sum of every span's self time. The two agree when children stay
	// inside their parents.
	RootUS    float64                `json:"root_us"`
	SelfSumUS float64                `json:"self_sum_us"`
	Layers    map[string]*layerStats `json:"layers"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// buildLayers folds spans into per-layer totals and attaches the counter
// ratios whose metric name starts with the layer's name.
func buildLayers(spans []span, perLayer map[string]float64) layersReport {
	rep := layersReport{Layers: make(map[string]*layerStats)}
	self := selfTimes(spans)
	layer := func(name string) *layerStats {
		l := rep.Layers[name]
		if l == nil {
			l = &layerStats{Spans: make(map[string]*spanStats)}
			rep.Layers[name] = l
		}
		return l
	}
	for _, s := range spans {
		l := layer(s.Layer)
		byName := l.Spans[s.Name]
		if byName == nil {
			byName = &spanStats{}
			l.Spans[s.Name] = byName
		}
		for _, st := range []*spanStats{&l.spanStats, byName} {
			st.Count++
			st.BusyUS += us(s.End - s.Start)
			st.SelfUS += us(self[s.ID])
			st.Retried += s.Retried
			if s.Failed {
				st.Failed++
			}
		}
		if s.Parent == 0 {
			rep.RootUS += us(s.End - s.Start)
		}
		rep.SelfSumUS += us(self[s.ID])
	}
	for name, v := range perLayer {
		for i := 0; i < len(name); i++ {
			if name[i] == '.' {
				l := layer(name[:i])
				if l.Ratios == nil {
					l.Ratios = make(map[string]float64)
				}
				l.Ratios[name] = v
				break
			}
		}
	}
	return rep
}

// writeTrace writes spans.jsonl and layers.json into dir.
func writeTrace(dir string, spans []span, rep layersReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return fmt.Errorf("spans.jsonl: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans.jsonl: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans.jsonl: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans.jsonl: %w", err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("layers.json: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("layers.json: %w", err)
	}
	return nil
}
