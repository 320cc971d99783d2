package daemon

// A second way to run the engine: daemons built by New and bound through
// their seam (clock, sched, out) to one sim.Simulator instead of Start's
// wall clock, timers and UDP transport, so a schedule of gaps and crashes
// replays exactly from its seed. The harness models what udptransport
// guarantees and what it does not:
//
//   - messages on one link arrive in the order they were sent, each after a
//     seeded delay;
//   - a seeded share never arrives: the transport gave it up after its
//     retries, which leaves a gap in that order;
//   - a crash loses what the node still had queued, what was on its way to
//     it, and its timers;
//   - a forwarded allocation's waiter is withdrawn after AllocTimeout, as
//     handleV1Allocate withdraws it.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
	"quorumconf/internal/wire"
)

const (
	simDaemons   = 5
	simAllocs    = 20
	simHeartbeat = 100 * time.Millisecond
	simSuspect   = 4 * simHeartbeat
	// Allocations and faults fall in [simBusy, simBusy+simBusyFor); the run
	// then goes on for simSettle, long enough for a failover, a reclamation,
	// a rejoin and every allocation timeout to finish.
	simBusy    = 500 * time.Millisecond
	simBusyFor = 2 * time.Second
	simSettle  = 3 * time.Second
)

// simFamily is one kind of schedule: a gap share, a replication target, and
// the faults it injects from time at on.
type simFamily struct {
	name  string
	gap   float64
	rf    int
	fault func(f *simFleet, at time.Duration)
}

var simFamilies = []simFamily{
	{name: "loss", gap: 0.05},
	{name: "member_crash", gap: 0.02, fault: func(f *simFleet, at time.Duration) {
		f.crashAt(at, radio.NodeID(2+f.rng.Intn(simDaemons-1)))
	}},
	{name: "owner_crash", gap: 0.02, fault: func(f *simFleet, at time.Duration) { f.crashAt(at, 1) }},
	// Under ReplicationTarget 2 only the owner and its successor hold the
	// table; both die before a new holder is recruited.
	{name: "owner_and_successor_crash", gap: 0.02, rf: 2, fault: func(f *simFleet, at time.Duration) {
		f.crashAt(at, 1)
		f.crashAt(at+time.Duration(f.rng.Int63n(int64(simSuspect))), 2)
	}},
	{name: "crash_restart", gap: 0.02, fault: func(f *simFleet, at time.Duration) {
		id := radio.NodeID(2 + f.rng.Intn(simDaemons-1))
		f.crashAt(at, id)
		f.spawnAt(at+100*time.Millisecond+time.Duration(f.rng.Int63n(int64(1500*time.Millisecond))), id)
	}},
}

// simFleet is one run: the simulator, the live engine under each ID (nil
// when crashed), every allocation asked for, and the log of the run.
type simFleet struct {
	fam    simFamily
	s      *sim.Simulator
	rng    *rand.Rand
	live   [simDaemons + 1]*Daemon
	allocs []*simAlloc
	linkAt map[[2]radio.NodeID]time.Duration // when a link's last message arrives
	log    io.Writer                         // nil: the run keeps no log
	bad    []string                          // oracle violations
}

// simAlloc is one allocation asked of d, and its outcome once known.
type simAlloc struct {
	d     *Daemon
	res   chan allocResult
	addr  addrspace.Addr
	known bool
}

// logSink writes every trace event to the run's log.
type logSink struct{ w io.Writer }

func (l logSink) Record(e obs.Event) { fmt.Fprintf(l.w, "%+v\n", e) }

// logf writes one line to the run's log, stamped with the virtual time.
func (f *simFleet) logf(format string, args ...any) {
	if f.log != nil {
		fmt.Fprintf(f.log, "%v "+format+"\n", append([]any{f.s.Now()}, args...)...)
	}
}

// runSimFleet runs one seed of fam and returns what the oracle found,
// writing every delivery and trace event to log unless it is nil.
func runSimFleet(fam simFamily, seed int64, log io.Writer) (bad []string) {
	s := sim.New(seed)
	f := &simFleet{fam: fam, s: s, rng: s.Rand(), linkAt: make(map[[2]radio.NodeID]time.Duration), log: log}
	defer func() {
		if r := recover(); r != nil {
			bad = append(f.bad, fmt.Sprintf("panic at %v: %v\n%s", s.Now(), r, debug.Stack()))
		}
	}()
	for id := radio.NodeID(1); id <= simDaemons; id++ {
		f.spawnAt(time.Duration(id)*time.Millisecond, id)
	}
	for i := 0; i < simAllocs; i++ {
		id := radio.NodeID(1 + f.rng.Intn(simDaemons))
		s.Schedule(simBusy+time.Duration(f.rng.Int63n(int64(simBusyFor))), func() {
			if d := f.live[id]; d != nil {
				f.allocate(d)
			}
		})
	}
	if fam.fault != nil {
		fam.fault(f, simBusy+time.Duration(f.rng.Int63n(int64(simBusyFor))))
	}
	if err := s.RunUntil(simBusy + simBusyFor + simSettle); err != nil {
		return append(f.bad, err.Error())
	}
	f.checkUnique("at the end")
	f.checkSettled()
	return f.bad
}

// alive reports whether d is the engine running under its ID.
func (f *simFleet) alive(d *Daemon) bool { return f.live[d.cfg.ID] == d }

// spawnAt starts a fresh engine under id at time at, as a daemon started
// again after a crash would: New, then boot.
func (f *simFleet) spawnAt(at time.Duration, id radio.NodeID) {
	f.s.Schedule(at, func() {
		cfg := Config{
			ID: id, Space: testSpace, Bootstrap: id == 1, Nonce: 1,
			HeartbeatInterval: simHeartbeat, SuspectAfter: simSuspect, QuorumTimeout: 200 * time.Millisecond,
			ReclaimSettle: 200 * time.Millisecond, JoinRetry: 150 * time.Millisecond, AllocTimeout: time.Second,
			ReplicationTarget: f.fam.rf,
		}
		if f.log != nil {
			cfg.Tracer = obs.NewTracer(f.s.Now, logSink{f.log})
		}
		for p := radio.NodeID(1); p <= simDaemons; p++ {
			if p != id {
				cfg.Seeds = append(cfg.Seeds, p)
			}
		}
		d, err := New(cfg)
		if err != nil {
			panic(err)
		}
		d.clock = f.s.Now
		d.sched = func(dur time.Duration, fn func()) func() bool {
			return f.s.Schedule(dur, func() {
				if f.alive(d) {
					fn()
				}
			}).Cancel
		}
		d.out = func(env *wire.Envelope) error {
			f.send(d, env)
			return nil
		}
		f.logf("start %d", id)
		f.live[id] = d
		d.boot()
	})
}

// crashAt kills the engine under id at time at, after the oracle has seen
// what it held.
func (f *simFleet) crashAt(at time.Duration, id radio.NodeID) {
	f.s.Schedule(at, func() {
		f.checkUnique(fmt.Sprintf("before %d crashed", id))
		f.logf("crash %d", id)
		f.live[id] = nil
	})
}

// send is an engine's outbox. The envelope crosses as bytes, so no engine
// holds another's pointers.
func (f *simFleet) send(src *Daemon, env *wire.Envelope) {
	env.Src = src.cfg.ID
	b, err := wire.Encode(env)
	if err != nil {
		panic(err)
	}
	rx, err := wire.Decode(b)
	if err != nil {
		panic(err)
	}
	if f.rng.Float64() < f.fam.gap {
		f.logf("gap %d>%d %s", rx.Src, rx.Dst, rx.Type)
		return
	}
	link := [2]radio.NodeID{rx.Src, rx.Dst}
	at := max(f.s.Now()+100*time.Microsecond+time.Duration(f.rng.Int63n(int64(900*time.Microsecond))), f.linkAt[link])
	f.linkAt[link] = at
	f.s.ScheduleAt(at, func() {
		if rx.Dst < 1 || rx.Dst > simDaemons {
			return
		}
		dst := f.live[rx.Dst]
		if !f.alive(src) || dst == nil {
			return
		}
		f.logf("deliver %d>%d %s %x", rx.Src, rx.Dst, rx.Type, rx.Span)
		dst.handle(rx)
	})
}

// allocate asks d for an address as /v1/allocate does.
func (f *simFleet) allocate(d *Daemon) {
	a := &simAlloc{d: d, res: make(chan allocResult, 1)}
	f.allocs = append(f.allocs, a)
	span := d.allocateLocal(a.res)
	f.s.Schedule(d.cfg.AllocTimeout, func() {
		if f.alive(d) {
			d.takeAllocWaiter(span)
		}
	})
}

// grants lists, per live engine, the addresses it was granted: its own and
// every allocation it answered with success.
func (f *simFleet) grants() map[*Daemon][]addrspace.Addr {
	out := make(map[*Daemon][]addrspace.Addr)
	for _, d := range f.live {
		if d != nil && d.hasIP {
			out[d] = append(out[d], d.selfIP)
		}
	}
	for _, a := range f.allocs {
		if !a.known {
			select {
			case r := <-a.res:
				a.known, a.addr = true, r.addr
			default:
			}
		}
		if a.known && a.addr != 0 && f.alive(a.d) {
			out[a.d] = append(out[a.d], a.addr)
		}
	}
	return out
}

func (f *simFleet) violate(format string, args ...any) {
	f.bad = append(f.bad, fmt.Sprintf("%v: ", f.s.Now())+fmt.Sprintf(format, args...))
}

// checkUnique: no address is granted to two live engines. An address of a
// crashed engine may have been reclaimed and granted again.
func (f *simFleet) checkUnique(when string) {
	held := make(map[addrspace.Addr]radio.NodeID)
	grants := f.grants()
	for _, d := range f.live {
		for _, a := range grants[d] {
			if prev, dup := held[a]; dup && prev != d.cfg.ID {
				f.violate("%s: %v granted to both %d and %d", when, a, prev, d.cfg.ID)
			}
			held[a] = d.cfg.ID
		}
	}
}

// checkSettled: once the run has settled, every live engine is joined, one
// of them at least owns the space, and an owner's table shows every live
// grant occupied. An owner lacks a table only under a bounded replica set,
// whose designated copies can all die with their holders.
func (f *simFleet) checkSettled() {
	var owners []*Daemon
	for _, d := range f.live {
		switch {
		case d == nil:
		case !d.joined:
			f.violate("%d is not joined", d.cfg.ID)
		case d.isOwner():
			owners = append(owners, d)
		}
	}
	if len(owners) == 0 {
		f.violate("no live owner")
	}
	grants := f.grants()
	for _, o := range owners {
		if o.table == nil {
			if f.fam.rf == 0 {
				f.violate("owner %d has no table under full replication", o.cfg.ID)
			}
			continue
		}
		for d, addrs := range grants {
			for _, a := range addrs {
				if e, _ := o.table.Get(a); e.Status != addrspace.Occupied {
					f.violate("%v granted to %d is %v at owner %d", a, d.cfg.ID, e.Status, o.cfg.ID)
				}
			}
		}
	}
}

// TestSimFleetSweep runs every schedule family over seeds 1–100 on the
// simulated fleet, and the oracle over each run.
func TestSimFleetSweep(t *testing.T) {
	const seeds = 100
	for _, fam := range simFamilies {
		t.Run(fam.name, func(t *testing.T) {
			failed := 0
			for seed := int64(1); seed <= seeds; seed++ {
				bad := runSimFleet(fam, seed, nil)
				if len(bad) > 0 && failed < 3 {
					t.Errorf("seed %d: %s", seed, strings.Join(bad, "; "))
				}
				if len(bad) > 0 {
					failed++
				}
			}
			if failed > 0 {
				t.Errorf("%d of %d seeds broke the oracle", failed, seeds)
			}
		})
	}
}

// TestSimFleetRegressions replays seeds that once broke the oracle.
func TestSimFleetRegressions(t *testing.T) {
	for _, tc := range []struct {
		family string
		seed   int64
		why    string
	}{
		{"owner_crash", 43, "the commit's write to the successor and the holder's defense were both lost"},
		{"owner_crash", 85, "the successor had requested the address, and the commit's write to it was lost"},
		{"owner_and_successor_crash", 181, "members that took the successor's word for the owner's death still named the owner, so none promoted itself when the successor died"},
	} {
		for _, fam := range simFamilies {
			if fam.name == tc.family {
				if bad := runSimFleet(fam, tc.seed, nil); len(bad) > 0 {
					t.Errorf("%s seed %d (%s): %s", tc.family, tc.seed, tc.why, strings.Join(bad, "; "))
				}
			}
		}
	}
}

// TestSimFleetReplays: one seed run twice logs the same bytes — every
// delivery, gap, crash and start, and every engine's trace events.
func TestSimFleetReplays(t *testing.T) {
	for _, fam := range simFamilies {
		var a, b bytes.Buffer
		runSimFleet(fam, 1, &a)
		runSimFleet(fam, 1, &b)
		if a.Len() == 0 || !bytes.Equal(a.Bytes(), b.Bytes()) {
			al, bl := strings.Split(a.String(), "\n"), strings.Split(b.String(), "\n")
			for i := range min(len(al), len(bl)) {
				if al[i] != bl[i] {
					t.Errorf("%s: the replay differs at line %d:\n%s\n%s", fam.name, i+1, al[i], bl[i])
					break
				}
			}
			t.Errorf("%s: %d and %d log bytes", fam.name, a.Len(), b.Len())
		}
	}
}
