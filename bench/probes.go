package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/ctl"
	"quorumconf/internal/health"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
	"quorumconf/internal/transport/udptransport"
	"quorumconf/internal/wire"
)

// The per-layer probes time public functions of each package from outside
// it. They do not depend on the workload; a traced run of any workload
// ends with all of them, so every traced run reports every layer.
const (
	probeRounds    = 5
	probeIters     = 10000
	probeRoundTime = 40 * time.Millisecond
)

// Sinks keep probe results alive so the compiler cannot drop the calls.
// The nanosecond-scale probes get typed ones: storing a struct in an
// interface allocates, which would be most of what they measure.
var (
	sink      any
	sinkEntry addrspace.Entry
	sinkAddr  addrspace.Addr
	sinkBytes []byte
	sinkCheck health.Check
	sinkHops  int
)

// timeNS returns the median over probeRounds of fn's mean nanoseconds per
// call; a round is probeIters calls or probeRoundTime, whichever ends
// first, in batches sized so the clock is read about once a millisecond.
func timeNS(fn func()) float64 {
	t0 := time.Now()
	fn()
	batch := int(time.Millisecond / (time.Since(t0) + 1))
	if batch < 1 {
		batch = 1
	}
	if batch > 1024 {
		batch = 1024
	}
	rounds := make([]float64, probeRounds)
	for r := range rounds {
		n := 0
		start := time.Now()
		for n < probeIters {
			for i := 0; i < batch; i++ {
				fn()
			}
			n += batch
			if time.Since(start) > probeRoundTime {
				break
			}
		}
		rounds[r] = float64(time.Since(start)) / float64(n)
	}
	return median(rounds)
}

// probe is one named measurement filed under the layer it calls into.
type probe struct {
	layer string
	run   func(r *result) error
}

// runProbes runs every probe inside its own span under one root.
func runProbes(r *result, rec *recorder) error {
	root := rec.begin(0, "bench.probes", "bench")
	var firstErr error
	for _, p := range probes() {
		id := rec.begin(root, "probe", p.layer)
		err := p.run(r)
		rec.end(id, err != nil)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	rec.end(root, firstErr != nil)
	return firstErr
}

func probes() []probe {
	return []probe{
		{"wire", probeWire},
		{"udptransport", probeTransport},
		{"daemon", probeSingleNode},
		{"addrspace", probeAddrspace},
		{"obs", probeObs},
		{"health", probeHealth},
		{"sim", probeSim},
		{"radio", probeRadio},
	}
}

// filledTable returns a table over the benchmark's space with its lowest
// n addresses occupied — what the owner's table looks like late in an
// epoch.
func filledTable(n int) (*addrspace.Table, error) {
	t, err := addrspace.NewTable(benchSpace)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if _, err := t.Mark(benchSpace.Lo+addrspace.Addr(i), addrspace.Occupied); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func probeWire(r *result) error {
	small := &wire.Envelope{
		MsgID: 4711, Type: msg.TQuorumClt, Src: 1, Dst: 3, Category: metrics.CatConfig, Hops: 1,
		Span:    obs.MintSpan(2, 99),
		Payload: msg.QuorumClt{BallotID: 1234, Owner: 1, Addr: benchSpace.Lo + 2000, Allocator: 1},
	}
	frame, err := wire.Encode(small)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	r.set("wire.encode_small_ns", timeNS(func() { buf, _ = wire.AppendEncode(buf[:0], small) }), probeIters)
	r.set("wire.decode_small_ns", timeNS(func() { sink, _ = wire.Decode(frame) }), probeIters)
	r.set("wire.encode_small_allocs", testing.AllocsPerRun(1000, func() { buf, _ = wire.AppendEncode(buf[:0], small) }), 1000)
	r.set("wire.decode_small_allocs", testing.AllocsPerRun(1000, func() { sink, _ = wire.Decode(frame) }), 1000)

	table, err := filledTable(4000)
	if err != nil {
		return err
	}
	replica := &wire.Envelope{
		MsgID: 4712, Type: msg.TReplicaDist, Src: 1, Dst: 3, Category: metrics.CatSync, Hops: 1,
		Payload: msg.ReplicaDist{Info: msg.HolderInfo{
			Owner: 1, OwnerIP: benchSpace.Lo, Pool: addrspace.NewPool(table), Holders: []radio.NodeID{1, 2, 3, 4, 5},
		}},
	}
	big, err := wire.Encode(replica)
	if err != nil {
		return err
	}
	bigBuf := make([]byte, 0, len(big))
	r.set("wire.encode_replica4k_us", timeNS(func() { bigBuf, _ = wire.AppendEncode(bigBuf[:0], replica) })/1e3, probeRounds)
	r.set("wire.decode_replica4k_us", timeNS(func() { sink, _ = wire.Decode(big) })/1e3, probeRounds)
	r.set("wire.replica4k_bytes", float64(len(big)), 1)

	inner := make([]byte, 64)
	sealed, err := wire.Seal(benchAuthKey, inner)
	if err != nil {
		return err
	}
	sealBuf := make([]byte, 0, 128)
	r.set("wire.seal_ns", timeNS(func() { sealBuf, _ = wire.AppendSeal(sealBuf[:0], benchAuthKey, inner) }), probeIters)
	r.set("wire.open_ns", timeNS(func() { sinkBytes, _ = wire.Open(benchAuthKey, sealed) }), probeIters)

	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = frame
	}
	batch, err := wire.AppendBatchRaw(nil, frames)
	if err != nil {
		return err
	}
	batchBuf := make([]byte, 0, len(batch))
	r.set("wire.batch16_encode_ns", timeNS(func() { batchBuf, _ = wire.AppendBatchRaw(batchBuf[:0], frames) }), probeIters)
	r.set("wire.batch16_decode_ns", timeNS(func() { sink, _ = wire.DecodeBatch(batch) }), probeIters)
	return nil
}

// endpointPair is two transports on loopback; b counts what it receives.
type endpointPair struct {
	a, b     *udptransport.Transport
	received atomic.Int64
}

func newEndpointPair(configure func(*udptransport.Config)) (*endpointPair, error) {
	p := &endpointPair{}
	for _, end := range []struct {
		id radio.NodeID
		t  **udptransport.Transport
	}{{1, &p.a}, {2, &p.b}} {
		cfg := udptransport.Config{ID: end.id, RetryBase: 10 * time.Millisecond}
		if configure != nil {
			configure(&cfg)
		}
		t, err := udptransport.New(cfg)
		if err != nil {
			p.close()
			return nil, err
		}
		*end.t = t
	}
	p.a.SetHandler(func(*wire.Envelope) {})
	p.b.SetHandler(func(*wire.Envelope) { p.received.Add(1) })
	err := p.a.AddPeer(2, p.b.LocalAddr().String())
	if err == nil {
		err = p.b.AddPeer(1, p.a.LocalAddr().String())
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *endpointPair) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, t := range []*udptransport.Transport{p.a, p.b} {
		if t != nil {
			_ = t.Close(ctx) // teardown of a probe endpoint; nothing to report
		}
	}
}

func pingEnvelope() *wire.Envelope {
	return &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatHello, Payload: msg.RepReq{}}
}

// rtts sends n messages one at a time, each waiting for its ack, and
// returns the sorted round-trip times in microseconds.
func (p *endpointPair) rtts(n int) ([]float64, error) {
	ctx := context.Background()
	out := make([]float64, 0, n)
	for i := 0; i < n+50; i++ {
		t0 := time.Now()
		if err := p.a.SendWait(ctx, pingEnvelope()); err != nil {
			return nil, err
		}
		if i >= 50 { // first sends start the queue worker and warm the path
			out = append(out, us(time.Since(t0)))
		}
	}
	sort.Float64s(out)
	return out, nil
}

// stream sends n messages without waiting for acks and returns messages
// per second until the peer has them all — the stop-and-wait ARQ's cap of
// one frame (or one batch) per round trip.
func (p *endpointPair) stream(n int) (float64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := p.received.Load()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := p.a.Send(ctx, pingEnvelope()); err != nil {
			return 0, err
		}
	}
	if err := pollUntil(30*time.Second, func() bool { return p.received.Load()-base >= int64(n) }); err != nil {
		return 0, fmt.Errorf("stream: peer received %d of %d", p.received.Load()-base, n)
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}

func probeTransport(r *result) error {
	plain, err := newEndpointPair(nil)
	if err != nil {
		return err
	}
	defer plain.close()
	rtt, err := plain.rtts(2000)
	if err != nil {
		return err
	}
	r.set("udptransport.rtt_p50_us", percentile(rtt, 0.50), len(rtt))
	r.set("udptransport.rtt_p99_us", percentile(rtt, 0.99), len(rtt))
	rate, err := plain.stream(10000)
	if err != nil {
		return err
	}
	r.set("udptransport.stream_msgs_per_s", rate, 10000)

	auth, err := newEndpointPair(func(c *udptransport.Config) { c.AuthKey = benchAuthKey })
	if err != nil {
		return err
	}
	defer auth.close()
	if rtt, err = auth.rtts(2000); err != nil {
		return err
	}
	r.set("udptransport.rtt_auth_p50_us", percentile(rtt, 0.50), len(rtt))

	batched, err := newEndpointPair(func(c *udptransport.Config) { c.BatchFlushBytes = 16384 })
	if err != nil {
		return err
	}
	defer batched.close()
	if rate, err = batched.stream(10000); err != nil {
		return err
	}
	r.set("udptransport.stream_batched_msgs_per_s", rate, 10000)

	lossy, err := newEndpointPair(func(c *udptransport.Config) { c.DropRate = 0.02 })
	if err != nil {
		return err
	}
	defer lossy.close()
	if rtt, err = lossy.rtts(1500); err != nil {
		return err
	}
	r.set("udptransport.lossy_rtt_mean_ms", mean(rtt)/1e3, len(rtt))
	retries := lossy.a.Metrics().Counter(udptransport.CtrRetries)
	r.set("udptransport.lossy_retries_per_msg", float64(retries)/float64(len(rtt)+50), len(rtt)+50)
	return nil
}

// probeSingleNode is the single-node baseline: a one-daemon fleet has no
// peers, so an allocation is HTTP, the event loop and the table.
func probeSingleNode(r *result) error {
	f, err := bootFleet(1, nil, nil)
	if err != nil {
		return err
	}
	defer f.kill()
	hc, tr := newHTTPClient(10*time.Second, 1)
	f.idle = append(f.idle, tr)
	cl := ctl.New(f.daemons[0].HTTPAddr(), ctl.WithHTTPClient(hc), ctl.WithRetries(0))
	ctx := context.Background()
	// Status first: its answer lists every address the daemon holds, so it
	// is timed while the daemon holds only its own.
	const n = 1000
	timeCalls := func(call func() error) ([]float64, error) {
		out := make([]float64, 0, n)
		for i := 0; i < n+50; i++ {
			t0 := time.Now()
			if err := call(); err != nil {
				return nil, err
			}
			if i >= 50 {
				out = append(out, us(time.Since(t0)))
			}
		}
		return out, nil
	}
	statuses, err := timeCalls(func() error { _, err := cl.Status(ctx); return err })
	if err != nil {
		return err
	}
	allocs, err := timeCalls(func() error { _, err := cl.Allocate(ctx, 0); return err })
	if err != nil {
		return err
	}
	r.set("daemon.single_alloc_p50_us", median(allocs), n)
	r.set("ctl.status_p50_us", median(statuses), n)
	return nil
}

func probeAddrspace(r *result) error {
	table, err := filledTable(4000)
	if err != nil {
		return err
	}
	a := benchSpace.Lo
	r.set("addrspace.get_ns", timeNS(func() {
		sinkEntry, _ = table.Get(a)
		if a++; a > benchSpace.Lo+4000 {
			a = benchSpace.Lo
		}
	}), probeIters)
	r.set("addrspace.firstfree4k_us", timeNS(func() { sinkAddr, _ = table.FirstFree() })/1e3, probeIters)
	r.set("addrspace.clone4k_us", timeNS(func() { sink = table.Clone() })/1e3, probeIters)
	r.set("addrspace.entries4k_us", timeNS(func() { sink = table.Entries() })/1e3, probeIters)
	return nil
}

func probeObs(r *result) error {
	tracer := obs.NewTracer(nil, obs.NewRing(obs.DefaultRingSize))
	ev := obs.Event{Kind: obs.EvBallotVote, Node: 1, Peer: 2, Addr: benchSpace.Lo + 7, MsgID: 9, Span: obs.MintSpan(1, 9)}
	r.set("obs.emit_ring_ns", timeNS(func() { tracer.Emit(ev) }), probeIters)
	hist := obs.NewHistogram(1e-6)
	v := int64(0)
	r.set("obs.hist_observe_ns", timeNS(func() { v += 37; hist.Observe(v & 0xffff) }), probeIters)

	// 10k events shaped like a member-driven allocation's: five per span.
	events := make([]obs.Event, 0, 10000)
	kinds := []obs.EventKind{obs.EvAllocRequest, obs.EvBallotOpen, obs.EvBallotVote, obs.EvBallotCommit, obs.EvAllocGrant}
	for i := 0; len(events) < cap(events); i++ {
		for k, kind := range kinds {
			events = append(events, obs.Event{
				Seq: uint64(len(events)), Time: time.Duration(i*10+k) * time.Microsecond,
				Kind: kind, Node: radio.NodeID(1 + k%3), Span: obs.MintSpan(2, uint64(i+1)),
			})
		}
	}
	r.set("obs.buildspans_10k_ms", timeNS(func() { sink = obs.BuildSpans(events) })/1e6, probeRounds)
	return nil
}

func probeHealth(r *result) error {
	now := time.Now()
	monitor := health.New(health.Config{Target: 0, TTL: 4 * time.Second}, nil)
	peers := make([]health.PeerState, 5)
	for i := range peers {
		peers[i] = health.PeerState{ID: radio.NodeID(i + 2), Holder: true, AckedAt: now.Add(-time.Duration(i) * time.Second)}
	}
	r.set("health.evaluate_ns", timeNS(func() { sinkCheck = monitor.Evaluate(now, 1, peers) }), probeIters)
	return nil
}

func probeSim(r *result) error {
	// One pass each: a million timers take over a second to schedule and
	// fire, and the heap's depth is the point.
	const timers = 1_000_000
	rng := rand.New(rand.NewSource(1))
	s := sim.New(1)
	fired := 0
	t0 := time.Now()
	for i := 0; i < timers; i++ {
		s.Schedule(time.Duration(rng.Int63n(int64(time.Hour))), func() { fired++ })
	}
	if err := s.Run(); err != nil {
		return err
	}
	if fired != timers {
		return fmt.Errorf("sim fired %d of %d timers", fired, timers)
	}
	r.set("sim.event_ns", float64(time.Since(t0))/timers, timers)

	s = sim.New(1)
	fired = 0
	handles := make([]*sim.Timer, timers)
	t0 = time.Now()
	for i := range handles {
		handles[i] = s.Schedule(time.Duration(rng.Int63n(int64(time.Hour))), func() { fired++ })
	}
	for i := 0; i < timers; i += 2 {
		handles[i].Cancel()
	}
	if err := s.Run(); err != nil {
		return err
	}
	if fired != timers/2 {
		return fmt.Errorf("sim fired %d timers with half of %d cancelled", fired, timers)
	}
	r.set("sim.cancel_compact_ns", float64(time.Since(t0))/timers, timers)
	return nil
}

func probeRadio(r *result) error {
	const nodes = 200
	rng := rand.New(rand.NewSource(1))
	topo, err := radio.NewTopology(150)
	if err != nil {
		return err
	}
	for i := 0; i < nodes; i++ {
		p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if err := topo.Add(radio.NodeID(i), mobility.Static(p)); err != nil {
			return err
		}
	}
	r.set("radio.snapshot200_us", timeNS(func() { sink = topo.Snapshot(0) })/1e3, probeIters)
	// A snapshot memoizes one BFS per source, so each call asks a source the
	// snapshot has not seen; a fresh snapshot every 200 calls adds under 1%.
	snap, src := topo.Snapshot(0), 0
	r.set("radio.hopcount_us", timeNS(func() {
		if src == nodes {
			snap, src = topo.Snapshot(0), 0
		}
		sinkHops, _ = snap.HopCount(radio.NodeID(src), radio.NodeID(nodes-1-src))
		src++
	})/1e3, probeIters)
	return nil
}
