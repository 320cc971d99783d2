package daemon

// The owner's write path, for allocations (commitBallot) and frees
// (writeFree) alike. Everything here runs on the event-loop goroutine.
//
// A committed entry goes at once only to its write set (writeSet):
//
//   - every member the committing round asked: each holds, or may hold, the
//     address's vote, and the write releases it;
//   - the requestor, whose COM_CFG follows in the same frame;
//   - the failover successor, the lowest-ID live peer, which declareDead
//     promotes when the owner dies — so failover stays a role change for
//     every write that left the owner (one still queued when it died comes
//     back through the holder's defense, onRecRep).
//
// Every other live member gets the write queued on its roster record.
// sendSpan sends that queue ahead of the next message to the member, so the
// member sees the owner's messages in the order the owner produced them, and
// the heartbeat REP_REQ is such a message: a member lags by at most one
// HeartbeatInterval, or by maxPendingWrites writes.
//
// It is the paper's quorum intersection. Every vote a commit was decided on
// came from a member the round asked, and the write is handed to the
// transport for each of them before the reply is. Any later majority read —
// a promoted owner's ballot included — shares a voter with that majority,
// which still holds its grant (Busy) or holds the new version. A lagging member holds no vote for the
// address, and its stale copy is outvoted by the freshest version.

import (
	"slices"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// maxPendingWrites bounds one member's deferred writes to about one default
// 1400-byte batch frame. An allocation's QUORUM_UPD envelope encodes to
// about 31 bytes and its UPDATE_LOC to about 23, each behind a one-byte
// length in the frame, so (1400-4)/(32+24) ≈ 24 writes fit behind the
// 4-byte batch header. Reaching the bound flushes the queue at once, so a
// member no round asks cannot fill its transport queue (512 messages)
// between heartbeats, where a full queue would drop writes.
const maxPendingWrites = 24

// write is one committed table entry on its way to a member: its QUORUM_UPD
// and, for an allocation, the new holder's UPDATE_LOC.
type write struct {
	upd  msg.QuorumUpd
	loc  *msg.UpdateLoc   // nil for a free
	cat  metrics.Category // the QUORUM_UPD's traffic category
	span uint64           // the QUORUM_UPD's span
}

// writeSet splits the live peers for one write. now lists the members
// asked names, the successor and the requestor, in the order the write
// leaves — ascending by ID, the requestor last; later lists every other
// live peer. asked is the committing round's voters, nil for a free; a
// requestor that is self or not a member yet gets nothing here.
func (d *Daemon) writeSet(asked []radio.NodeID, requestor radio.NodeID) (now, later []*member) {
	var last *member
	for i, m := range d.peers() { // ascending by ID: the successor first
		switch {
		case m.id == requestor:
			last = m
		case i == 0 || slices.Contains(asked, m.id):
			now = append(now, m)
		default:
			later = append(later, m)
		}
	}
	if last != nil {
		now = append(now, last)
	}
	return now, later
}

// writeEntry is the owner's one write path: w leaves at once for the write
// set, one peer at a time so that a peer's share of it — and, for the
// requestor, the COM_CFG the caller sends next — is queued back to back and
// leaves as one frame, and is deferred for every other live peer.
func (d *Daemon) writeEntry(w write, asked []radio.NodeID, requestor radio.NodeID) {
	now, later := d.writeSet(asked, requestor)
	for _, m := range now {
		d.sendWrite(m.id, w)
	}
	for _, m := range later {
		m.pending = append(m.pending, w)
		if len(m.pending) >= maxPendingWrites {
			d.flushWrites(m)
		}
	}
	if len(later) > 0 {
		d.coll.Add("daemon.writes_deferred", int64(len(later)))
	}
}

// writeFree frees a one version above cur, its entry here, and writes the
// free under traffic category cat and span. No round asked anyone, so only
// the successor gets it at once.
func (d *Daemon) writeFree(a addrspace.Addr, cur addrspace.Entry, cat metrics.Category, span uint64) {
	e := addrspace.Entry{Status: addrspace.Free, Version: cur.Version + 1}
	_ = d.table.Set(a, e)
	d.writeEntry(write{upd: msg.QuorumUpd{Owner: d.cfg.ID, Addr: a, Entry: e}, cat: cat, span: span}, nil, 0)
}

// sendWrite hands w to the transport for dst.
func (d *Daemon) sendWrite(dst radio.NodeID, w write) {
	d.sendSpan(dst, msg.TQuorumUpd, w.cat, w.span, w.upd)
	if w.loc != nil {
		d.sendTo(dst, msg.TUpdateLoc, metrics.CatSync, *w.loc)
	}
}

// flushWrites sends m's deferred writes, oldest first.
func (d *Daemon) flushWrites(m *member) {
	pending := m.pending
	m.pending = nil // before sending: sendSpan flushes a non-empty queue
	for _, w := range pending {
		d.sendWrite(m.id, w)
	}
}
