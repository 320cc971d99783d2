package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// Payload bodies are their fields in declaration order. Collections carry a
// uvarint length prefix; optional pointers (tables, pools) carry a presence
// byte. Table entries are emitted in ascending address order and
// re-validated on decode, which keeps the encoding canonical.
//
// coder walks a payload's fields in wire order and either appends them to b
// (encode) or fills them from d (decode), so coder.payload lists each
// message type's fields exactly once and the two directions cannot drift.
// The first error sticks: after it the coder reads no more input, allocates
// nothing and keeps its error.
//
// payload is a switch and not a map of per-type closures on purpose: a call
// through a func value makes the coder escape, which costs an allocation
// per encode and two per decode (DESIGN.md Appendix A).
type coder struct {
	b   []byte
	d   decoder
	dec bool
	err error
}

func (c *coder) fail(sentinel error, format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
	}
}

// --- primitives, each doing both directions --------------------------------

func (c *coder) u8(v *byte) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if c.err == nil {
		*v, c.err = c.d.byte()
	}
}

func (c *coder) u64(v *uint64) {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, *v)
	} else if c.err == nil {
		*v, c.err = c.d.uvarint()
	}
}

// u32 is a uvarint that must fit 32 bits on the way in.
func (c *coder) u32(v uint32, what string) uint32 {
	x := uint64(v)
	c.u64(&x)
	if x > math.MaxUint32 {
		c.fail(ErrInvalid, "%s %d out of range", what, x)
	}
	return uint32(x)
}

// i32 is a zigzag varint that must fit 32 bits on the way in.
func (c *coder) i32(v int64, what string) int64 {
	if !c.dec {
		c.b = binary.AppendVarint(c.b, v)
	} else if c.err == nil {
		if v, c.err = c.d.varint(); v > math.MaxInt32 || v < math.MinInt32 {
			c.fail(ErrInvalid, "%s %d out of range", what, v)
		}
	}
	return v
}

// The typed primitives store only when decoding: a payload being encoded
// shares its slices and tables with the sender, which may be reading them.

func (c *coder) id(v *radio.NodeID) {
	if x := c.i32(int64(*v), "node ID"); c.dec {
		*v = radio.NodeID(x)
	}
}

func (c *coder) int(v *int) {
	if x := c.i32(int64(*v), "int"); c.dec {
		*v = int(x)
	}
}

func (c *coder) addr(v *addrspace.Addr) {
	if x := c.u32(uint32(*v), "address"); c.dec {
		*v = addrspace.Addr(x)
	}
}

func (c *coder) bool(v *bool) {
	var b byte
	if *v {
		b = 1
	}
	c.u8(&b)
	if b > 1 {
		c.fail(ErrInvalid, "bool byte %d", b)
	}
	if c.dec {
		*v = b == 1
	}
}

func (c *coder) tag(t *msg.NetTag) {
	c.addr(&t.Addr)
	if x := c.u32(t.Nonce, "uint32"); c.dec {
		t.Nonce = x
	}
}

func (c *coder) block(b *addrspace.Block) {
	c.addr(&b.Lo)
	c.addr(&b.Hi)
}

func (c *coder) entry(e *addrspace.Entry) {
	st := byte(e.Status)
	c.u8(&st)
	if c.dec {
		if st > byte(addrspace.Occupied) {
			c.fail(ErrInvalid, "status %d", st)
		}
		e.Status = addrspace.Status(st)
	}
	c.u64(&e.Version)
}

// count carries a collection length. On the way in it is checked against
// the bytes left in the frame (every element costs at least perElem bytes),
// so a hostile length prefix cannot trigger a huge allocation; after an
// error it is 0.
func (c *coder) count(n, perElem int) int {
	if !c.dec {
		c.b = binary.AppendUvarint(c.b, uint64(n))
		return n
	}
	if c.err == nil {
		n, c.err = c.d.count(perElem)
	}
	return n
}

func (c *coder) ids(v *[]radio.NodeID) {
	n := c.count(len(*v), 1)
	if c.dec && n > 0 {
		*v = make([]radio.NodeID, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.id(&(*v)[i])
	}
}

func (c *coder) members(v *[]msg.MemberRecord) {
	n := c.count(len(*v), 2)
	if c.dec && n > 0 {
		*v = make([]msg.MemberRecord, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		c.id(&(*v)[i].Node)
		c.addr(&(*v)[i].Addr)
	}
}

// table is asymmetric past the block: Entries() on the way out, NewTable +
// Set on the way in, with the block validated before the count is read and
// each address checked to ascend before its entry is read.
func (c *coder) table(pt **addrspace.Table) {
	present := *pt != nil
	c.bool(&present)
	if !present {
		return
	}
	if !c.dec {
		blk := (*pt).Block()
		c.block(&blk)
		entries := (*pt).Entries()
		c.count(len(entries), 3)
		for i := range entries {
			c.addr(&entries[i].Addr)
			c.entry(&entries[i].Entry)
		}
		return
	}
	var blk addrspace.Block
	c.block(&blk)
	if c.err != nil {
		return
	}
	t, err := addrspace.NewTable(blk)
	if err != nil {
		c.fail(ErrInvalid, "%v", err)
		return
	}
	var prev addrspace.Addr
	for i, n := 0, c.count(0, 3); i < n; i++ { // addr + status + version: >= 3 bytes each
		var ae addrspace.AddrEntry
		c.addr(&ae.Addr)
		if i > 0 && c.err == nil && ae.Addr <= prev {
			c.fail(ErrInvalid, "table entries not strictly ascending at %v", ae.Addr)
		}
		prev = ae.Addr
		c.entry(&ae.Entry)
		if c.err != nil {
			return
		}
		if err := t.Set(ae.Addr, ae.Entry); err != nil {
			c.fail(ErrInvalid, "%v", err)
			return
		}
	}
	if c.err == nil {
		*pt = t
	}
}

// pool walks Tables() on the way out and rebuilds with NewPool on the way
// in; a nil table inside a pool is invalid in both directions.
func (c *coder) pool(pp **addrspace.Pool) {
	present := *pp != nil
	c.bool(&present)
	if !present {
		return
	}
	var tables []*addrspace.Table
	if !c.dec {
		tables = (*pp).Tables()
	}
	n := c.count(len(tables), 4)
	if c.dec {
		tables = make([]*addrspace.Table, n)
	}
	for i := 0; i < n && c.err == nil; i++ {
		t := tables[i]
		c.table(&t)
		if t == nil {
			c.fail(ErrInvalid, "nil table inside pool")
		}
		if c.dec {
			tables[i] = t // never when encoding: Tables() is the pool's own slice
		}
	}
	if c.dec && c.err == nil {
		*pp = addrspace.NewPool(tables...)
	}
}

func (c *coder) holderInfo(h *msg.HolderInfo) {
	c.id(&h.Owner)
	c.addr(&h.OwnerIP)
	c.pool(&h.Pool)
	c.ids(&h.Holders)
}

func (c *coder) comCfg(g *msg.ComCfg) {
	c.addr(&g.Addr)
	c.tag(&g.NetworkID)
	c.id(&g.Configurer)
	c.int(&g.PathHops)
}

// --- the message vocabulary -------------------------------------------------

// in yields the struct a case walks: the payload itself when encoding (its
// concrete type must be T), the zero T to fill when decoding.
func in[T any](c *coder, p any) (v T) {
	if c.dec {
		return v
	}
	v, ok := p.(T)
	if !ok {
		c.fail(ErrPayload, "%T, want %T", p, v)
	}
	return v
}

// out boxes the filled struct when decoding; encoding has no result.
func out[T any](c *coder, v T) any {
	if !c.dec || c.err != nil {
		return nil
	}
	return v
}

// payload encodes p as, or decodes, the body of a typ message. This switch
// is the one place that lists each message type's fields.
func (c *coder) payload(typ string, p any) any {
	switch typ {
	case msg.TFirstBcast:
		v := in[msg.FirstBcast](c, p)
		c.int(&v.Tries)
		return out(c, v)
	case msg.TFirstResp:
		v := in[msg.FirstResp](c, p)
		c.addr(&v.IP)
		c.tag(&v.NetworkID)
		c.bool(&v.IsHead)
		return out(c, v)
	case msg.TComReq:
		v := in[msg.ComReq](c, p)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TComCfg:
		v := in[msg.ComCfg](c, p)
		c.comCfg(&v)
		return out(c, v)
	case msg.TComAck:
		v := in[msg.ComAck](c, p)
		c.addr(&v.Addr)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TNack:
		v := in[msg.CfgNack](c, p)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TChReq:
		v := in[msg.ChReq](c, p)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TChPrp:
		v := in[msg.ChPrp](c, p)
		c.block(&v.Block)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TChCnf:
		v := in[msg.ChCnf](c, p)
		c.block(&v.Block)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TChCfg:
		v := in[msg.ChCfg](c, p)
		c.table(&v.Table)
		c.tag(&v.NetworkID)
		c.id(&v.Configurer)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TChAck:
		v := in[msg.ChAck](c, p)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TQuorumClt:
		v := in[msg.QuorumClt](c, p)
		c.u64(&v.BallotID)
		c.id(&v.Owner)
		c.addr(&v.Addr)
		c.bool(&v.Split)
		c.id(&v.Allocator)
		return out(c, v)
	case msg.TQuorumCfm:
		v := in[msg.QuorumCfm](c, p)
		c.u64(&v.BallotID)
		c.entry(&v.Entry)
		c.bool(&v.HasReplica)
		c.bool(&v.Busy)
		return out(c, v)
	case msg.TQuorumUpd:
		v := in[msg.QuorumUpd](c, p)
		c.id(&v.Owner)
		c.addr(&v.Addr)
		c.entry(&v.Entry)
		return out(c, v)
	case msg.TSplitUpd:
		v := in[msg.SplitUpd](c, p)
		c.id(&v.Owner)
		c.pool(&v.NewPool)
		c.id(&v.NewHead)
		return out(c, v)
	case msg.TReplicaDist:
		v := in[msg.ReplicaDist](c, p)
		c.holderInfo(&v.Info)
		return out(c, v)
	case msg.TReplicaAck:
		v := in[msg.ReplicaAck](c, p)
		c.holderInfo(&v.Info)
		return out(c, v)
	case msg.TAgentFwd:
		v := in[msg.AgentFwd](c, p)
		c.id(&v.Requestor)
		c.int(&v.PathHops)
		return out(c, v)
	case msg.TAgentCfg:
		v := in[msg.AgentCfg](c, p)
		c.id(&v.Requestor)
		c.comCfg(&v.Grant)
		return out(c, v)
	case msg.TUpdateLoc:
		v := in[msg.UpdateLoc](c, p)
		c.id(&v.Configurer)
		c.addr(&v.ConfigurerIP)
		c.addr(&v.Addr)
		return out(c, v)
	case msg.TReturnAddr:
		v := in[msg.ReturnAddr](c, p)
		c.id(&v.Configurer)
		c.addr(&v.ConfigurerIP)
		c.addr(&v.Addr)
		return out(c, v)
	case msg.TDepartAck:
		return out(c, in[msg.DepartAck](c, p))
	case msg.TReturnFwd:
		v := in[msg.ReturnFwd](c, p)
		c.id(&v.Owner)
		c.addr(&v.Addr)
		return out(c, v)
	case msg.TVacate:
		v := in[msg.Vacate](c, p)
		c.id(&v.Owner)
		c.addr(&v.Addr)
		c.int(&v.TTL)
		return out(c, v)
	case msg.TChReturn:
		v := in[msg.ChReturn](c, p)
		c.pool(&v.Pool)
		c.members(&v.Members)
		return out(c, v)
	case msg.TChReturnAck:
		return out(c, in[msg.ChReturnAck](c, p))
	case msg.TChResign:
		return out(c, in[msg.ChResign](c, p))
	case msg.TReassign:
		v := in[msg.Reassign](c, p)
		c.id(&v.NewAllocator)
		c.addr(&v.NewAllocatorIP)
		return out(c, v)
	case msg.TPoolUpd:
		v := in[msg.PoolUpd](c, p)
		c.id(&v.Owner)
		c.pool(&v.Pool)
		return out(c, v)
	case msg.TRepReq:
		return out(c, in[msg.RepReq](c, p))
	case msg.TRepRsp:
		return out(c, in[msg.RepRsp](c, p))
	case msg.TAddrRec:
		v := in[msg.AddrRec](c, p)
		c.id(&v.Target)
		c.addr(&v.TargetIP)
		return out(c, v)
	case msg.TRecRep:
		v := in[msg.RecRep](c, p)
		c.id(&v.Target)
		c.addr(&v.Addr)
		return out(c, v)
	case msg.TRecFwd:
		v := in[msg.RecFwd](c, p)
		c.id(&v.Target)
		c.addr(&v.Addr)
		c.int(&v.TTL)
		return out(c, v)
	case msg.TReconfig:
		return out(c, in[msg.Reconfig](c, p))
	}
	c.fail(ErrUnknownType, "%q", typ)
	return nil
}
