package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{Kind: EvBallotOpen, Node: 3})
	tr.SetClock(func() time.Duration { return time.Second })
	tr.AddSink(NewRing(4))
	if tr.Enabled() {
		t.Fatal("nil tracer reports Enabled")
	}
}

func TestTracerStampsSeqAndClock(t *testing.T) {
	now := 5 * time.Second
	ring := NewRing(8)
	tr := NewTracer(func() time.Duration { return now }, ring)
	tr.Emit(Event{Kind: EvNodeArrived, Node: 1})
	now = 7 * time.Second
	tr.Emit(Event{Kind: EvNodeConfigured, Node: 1})
	// A pre-stamped event keeps its own timestamp.
	tr.Emit(Event{Kind: EvNodeDeparted, Node: 1, Time: time.Millisecond})

	evs := ring.Snapshot()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 3 {
		t.Fatalf("bad seq numbers: %+v", evs)
	}
	if evs[0].Time != 5*time.Second || evs[1].Time != 7*time.Second {
		t.Fatalf("clock not applied: %v %v", evs[0].Time, evs[1].Time)
	}
	if evs[2].Time != time.Millisecond {
		t.Fatalf("pre-stamped time overwritten: %v", evs[2].Time)
	}
}

func TestRingWrapsOldestFirst(t *testing.T) {
	ring := NewRing(3)
	tr := NewTracer(func() time.Duration { return time.Second }, ring)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Kind: EvBallotVote, Node: 1, MsgID: uint64(i)})
	}
	if ring.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ring.Len())
	}
	evs := ring.Snapshot()
	want := []uint64{2, 3, 4}
	for i, ev := range evs {
		if ev.MsgID != want[i] {
			t.Fatalf("snapshot order: got %v, want msg ids %v", evs, want)
		}
	}
}

func TestRingConcurrentRecordSnapshot(t *testing.T) {
	ring := NewRing(16)
	tr := NewTracer(nil, ring)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Event{Kind: EvTransportSend, Node: 9})
				_ = ring.Snapshot()
			}
		}()
	}
	wg.Wait()
	if ring.Len() != 16 {
		t.Fatalf("Len = %d, want 16", ring.Len())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Event{
		Seq:    42,
		Time:   1500 * time.Microsecond,
		Kind:   EvReclaimFree,
		Node:   7,
		Peer:   3,
		Addr:   0x0A000005,
		MsgID:  99,
		Detail: "timeout",
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"kind":"reclaim_free"`, `"addr":"10.0.0.5"`, `"time_us":1500`, `"peer":3`} {
		if !strings.Contains(s, want) {
			t.Fatalf("encoding %s missing %s", s, want)
		}
	}
	var out Event
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestJSONUnknownKindRejected(t *testing.T) {
	var e Event
	err := json.Unmarshal([]byte(`{"seq":1,"time_us":0,"kind":"warp_drive","node":1}`), &e)
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestJSONLWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	tr := NewTracer(func() time.Duration { return time.Second }, w)
	tr.Emit(Event{Kind: EvBallotOpen, Node: 1, Addr: 0x0A000001})
	tr.Emit(Event{Kind: EvBallotCommit, Node: 1, Addr: 0x0A000001})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != EvBallotCommit || e.Addr != 0x0A000001 {
		t.Fatalf("decoded %+v", e)
	}
}

type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	return 0, errFail
}

var errFail = bytes.ErrTooLarge

func TestJSONLWriterRetainsFirstError(t *testing.T) {
	w := NewJSONLWriter(&failingWriter{})
	// Small buffer writes only surface on Flush; force many records so the
	// bufio buffer spills and the error is captured by Record.
	for i := 0; i < 10000; i++ {
		w.Record(Event{Kind: EvTransportSend, Detail: strings.Repeat("x", 64)})
	}
	if w.Err() == nil && w.Flush() == nil {
		t.Fatal("writer error was swallowed")
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := EventKind(1); k < numEventKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if kindByName[k.String()] != k {
			t.Fatalf("kind %d (%s) does not round-trip", k, k)
		}
	}
	if EventKind(0).String() != "unknown" || numEventKinds.String() != "unknown" {
		t.Fatal("out-of-range kinds must stringify as unknown")
	}
	// Exhaustiveness in the other direction: the name index must hold
	// exactly one entry per kind, so a duplicated or missing name — which
	// would silently shadow a kind behind KindByName — fails here instead
	// of surfacing as "unknown" in production trace output.
	if len(kindByName) != int(numEventKinds)-1 {
		t.Fatalf("kindByName has %d entries, want %d: a kind name is missing or duplicated",
			len(kindByName), int(numEventKinds)-1)
	}
	for name, k := range kindByName {
		if k.String() != name {
			t.Fatalf("KindByName(%q) = %v but %v.String() = %q", name, k, k, k.String())
		}
	}
}

// TestThroughputKindNames pins the stable names of the allocation
// throughput engine's event kinds: trace filters (`quorumctl trace -kind`,
// /v1/trace?kind=) resolve them through KindByName, so a rename would break
// deployed tooling.
func TestThroughputKindNames(t *testing.T) {
	want := map[EventKind]string{
		EvBallotPipelined:     "ballot_pipelined",
		EvFrameBatched:        "frame_batched",
		EvVoteCacheHit:        "vote_cache_hit",
		EvVoteCacheInvalidate: "vote_cache_invalidate",
	}
	for kind, name := range want {
		if kind.String() != name {
			t.Errorf("kind %d stringifies as %q, want %q", kind, kind.String(), name)
		}
		got, ok := KindByName(name)
		if !ok || got != kind {
			t.Errorf("KindByName(%q) = %v, %v; want %v, true", name, got, ok, kind)
		}
	}
}
