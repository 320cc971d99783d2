package daemon

import (
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/transport/udptransport"
	"quorumconf/internal/wire"
)

// TestChaosMaliciousDaemonDefeated is the hardening acceptance harness: a
// five-daemon fleet with frame authentication and per-remote rate limiting
// enabled is attacked from a raw UDP socket that (1) injects plaintext
// forged COM_CFG grants impersonating the bootstrap node — the
// double-allocation attempt, (2) replays the same forgeries sealed under
// the wrong cluster key, and (3) floods the victim with thousands of
// datagrams. The attack must provably fail: every forgery dies at the
// socket boundary with an auth_reject (visible on the victim's trace
// ring), the flood is shed by the rate limiter, no duplicate address
// exists anywhere in the fleet afterwards, and honest allocations still
// succeed through the attacked daemon.
func TestChaosMaliciousDaemonDefeated(t *testing.T) {
	key := wire.DeriveKey("chaos-fleet-passphrase")
	ds := newCluster(t, 5, func(cfg *Config) {
		cfg.AuthKey = key
		cfg.RateLimit = 400 // generous: honest heartbeat traffic stays far below this
	})
	waitFor(t, 30*time.Second, "five-daemon formation", func() bool {
		for _, d := range ds {
			v, err := tryStatus(d)
			if err != nil || !v.Joined {
				return false
			}
		}
		return true
	})

	// A real allocation gives the forger a live address to double-allocate.
	granted, code := allocate(t, ds[0])
	if code != http.StatusOK {
		t.Fatalf("baseline allocation failed: HTTP %d", code)
	}

	atk, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()

	// forge builds a well-formed data frame a pre-hardening daemon would
	// have decoded and handled: a COM_CFG grant for the already-granted
	// address, with the bootstrap daemon's identity in both the envelope
	// source and the configurer field.
	forge := func(dst radio.NodeID, msgID uint64) []byte {
		frame, err := wire.AppendEncode([]byte{'D'}, &wire.Envelope{
			MsgID: msgID,
			Type:  msg.TComCfg,
			Src:   ds[0].ID(),
			Dst:   dst,
			Hops:  1,
			Payload: msg.ComCfg{
				Addr:       addrspace.Addr(granted.Value),
				Configurer: ds[0].ID(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}

	victim := ds[2]
	victimAddr := victim.UDPAddr()

	// Wave 1: plaintext forgeries against every member of the fleet.
	for i, d := range ds {
		for j := 0; j < 5; j++ {
			if _, err := atk.WriteToUDP(forge(d.ID(), uint64(990000+100*i+j)), d.UDPAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Wave 2: the same forgery sealed under a wrong key — an attacker who
	// knows the frame format but not the cluster passphrase.
	wrong := wire.DeriveKey("not-the-cluster-passphrase")
	sealed, err := wire.AppendSeal(nil, wrong, forge(victim.ID(), 995000))
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 5; j++ {
		if _, err := atk.WriteToUDP(sealed, victimAddr); err != nil {
			t.Fatal(err)
		}
	}

	// Wave 3: flood the victim faster than the admitted rate until the
	// token bucket provably engages. 200 datagrams per 20ms poll is 10k/s
	// against a 400/s budget.
	junk := forge(victim.ID(), 996000)
	waitFor(t, 10*time.Second, "rate limiter engaged on victim", func() bool {
		for j := 0; j < 200; j++ {
			if _, err := atk.WriteToUDP(junk, victimAddr); err != nil {
				return false
			}
		}
		return victim.Metrics().Counter(udptransport.CtrRateLimited) > 0
	})

	waitFor(t, 10*time.Second, "auth rejections recorded on victim", func() bool {
		return victim.Metrics().Counter(udptransport.CtrAuthReject) > 0
	})

	// Every forgery was shed before touching protocol state: the victim's
	// trace ring must carry auth_reject events naming the attacker.
	atkSource := atk.LocalAddr().String()
	sawReject := false
	for _, e := range victim.Trace() {
		if e.Kind == obs.EvAuthReject && e.Detail == atkSource {
			sawReject = true
			break
		}
	}
	if !sawReject {
		t.Errorf("victim trace ring has no %s event from attacker %s", obs.EvAuthReject, atkSource)
	}

	// The fleet still functions: an allocation through the attacked daemon
	// succeeds and is distinct from everything granted or self-assigned.
	second, code := allocate(t, victim)
	if code != http.StatusOK {
		t.Fatalf("post-attack allocation through victim failed: HTTP %d", code)
	}
	seen := map[string]string{granted.Addr: "baseline grant", second.Addr: "post-attack grant"}
	if len(seen) != 2 {
		t.Fatalf("post-attack grant duplicated the baseline address %s", granted.Addr)
	}
	for _, d := range ds {
		v := getStatus(t, d)
		if v.IP == "" {
			continue
		}
		who := fmt.Sprintf("daemon %d self-IP", d.ID())
		if prev, dup := seen[v.IP]; dup {
			t.Errorf("duplicate address %s held by %s and %s", v.IP, prev, who)
		}
		seen[v.IP] = who
	}
	t.Logf("attack shed: auth_reject=%d rate_limited=%d, %d unique addresses fleet-wide",
		victim.Metrics().Counter(udptransport.CtrAuthReject),
		victim.Metrics().Counter(udptransport.CtrRateLimited),
		len(seen))
}

// TestForgedSourcesDoNotGrowLiveness: without -auth-key the transport
// delivers any decodable frame, so liveness and death bookkeeping must be
// keyed by the electorate, not by whatever node IDs a raw socket invents,
// address attribution (UPDATE_LOC, REC_REP) by the space, not by whatever
// addresses it invents, and a RETURN_ADDR by who holds the address — here
// the owner's own IP, which no forged source may free.
func TestForgedSourcesDoNotGrowLiveness(t *testing.T) {
	const forged = 2000
	d := newSoloOwner(t)
	// A reclamation in progress, so that REC_REP has somewhere to write,
	// and a ring big enough to keep every defense it records.
	const target = radio.NodeID(7)
	events := obs.NewRing(4 * forged)
	d.tracer.AddSink(events)
	onLoopSync(t, d, func() { d.reclaims.Open(target, 0, 0) })
	atk, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer atk.Close()

	before := counter(d, udptransport.CtrDelivered)
	for i := 0; i < forged; i++ {
		env := &wire.Envelope{MsgID: uint64(i + 1), Type: msg.TRepRsp, Src: radio.NodeID(1000 + i), Dst: d.ID(), Payload: msg.RepRsp{}}
		outside := testSpace.Hi + 1 + addrspace.Addr(i)
		switch i % 5 {
		case 1:
			env.Type, env.Payload = msg.TAddrRec, msg.AddrRec{Target: radio.NodeID(100000 + i)}
		case 2:
			env.Type, env.Payload = msg.TUpdateLoc, msg.UpdateLoc{Configurer: radio.NodeID(200000 + i), ConfigurerIP: outside, Addr: outside}
		case 3:
			env.Type, env.Payload = msg.TRecRep, msg.RecRep{Target: target, Addr: outside}
		case 4:
			if i%10 == 9 {
				env.Src = d.ID() // the holder's own ID
			}
			env.Type, env.Payload = msg.TReturnAddr, msg.ReturnAddr{Configurer: env.Src, ConfigurerIP: testSpace.Lo, Addr: testSpace.Lo}
		}
		frame, err := wire.AppendEncode([]byte{'D'}, env)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := atk.WriteToUDP(frame, d.UDPAddr()); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			time.Sleep(2 * time.Millisecond) // stay inside the socket buffer
		}
	}
	waitFor(t, 10*time.Second, "forged frames delivered", func() bool {
		return counter(d, udptransport.CtrDelivered)-before >= forged/2
	})
	onLoopSync(t, d, func() {
		if len(d.roster) != 1 || d.roster[0].dead {
			t.Errorf("roster of a solo owner is %v after %d forged sources", d.electorate(), forged)
		}
		if size := int(testSpace.Size()); len(d.holders) > size {
			t.Errorf("space of %d addresses, yet %d holder entries after %d forged frames", size, len(d.holders), forged)
		}
		if e, _ := d.table.Get(testSpace.Lo); e.Status != addrspace.Occupied || d.holders[testSpace.Lo] != d.ID() {
			t.Errorf("owner's own %v is %v, attributed to %d, after forged returns", testSpace.Lo, e.Status, d.holders[testSpace.Lo])
		}
	})
	for _, e := range events.Snapshot() {
		if e.Kind == obs.EvReclaimDefend && !testSpace.Contains(e.Addr) {
			t.Fatalf("forged REC_REP defended %v, outside the space", e.Addr)
		}
	}
}
