package quorum

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// Reclaims is a replica holder's record of open reclamation runs (§IV-D),
// at most one per target: ADDR_REC opens a run, each REC_REP defends an
// address in it, and the settle step closes it and frees what nobody
// defended. Whether a target that turned out alive keeps its addresses is
// the caller's test, since each engine learns liveness its own way. The
// clock is the caller's, as with Grants. Reads on a nil Reclaims are safe.
type Reclaims map[radio.NodeID]*Reclaim

// Reclaim is one open run.
type Reclaim struct {
	Span     uint64        // causal span minted by the initiator
	Opened   time.Duration // when the run opened
	defended map[addrspace.Addr]bool
}

// Open starts a run for target, nil while one is already open.
func (r Reclaims) Open(target radio.NodeID, span uint64, now time.Duration) *Reclaim {
	if r[target] != nil {
		return nil
	}
	run := &Reclaim{Span: span, Opened: now, defended: make(map[addrspace.Addr]bool)}
	r[target] = run
	return run
}

// Running reports whether a run for target is open.
func (r Reclaims) Running(target radio.NodeID) bool { return r[target] != nil }

// Defend records that a, in target's space, is in use; false when no run
// for target is open.
func (r Reclaims) Defend(target radio.NodeID, a addrspace.Addr) (*Reclaim, bool) {
	run := r[target]
	if run == nil {
		return nil, false
	}
	run.defended[a] = true
	return run, true
}

// Close ends target's run; false when run is no longer the open one, as
// for a settle timer that outlived the state that armed it.
func (r Reclaims) Close(target radio.NodeID, run *Reclaim) bool {
	if run == nil || r[target] != run {
		return false
	}
	delete(r, target)
	return true
}

// Undefended returns the addresses of held nobody defended, in held's order.
func (run *Reclaim) Undefended(held []addrspace.Addr) []addrspace.Addr {
	var out []addrspace.Addr
	for _, a := range held {
		if !run.defended[a] {
			out = append(out, a)
		}
	}
	return out
}
