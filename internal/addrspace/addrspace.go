// Package addrspace manages IPv4 address blocks the way the paper's
// protocol distributes them: the first cluster head owns the whole space,
// and every new cluster head receives half of its allocator's remaining
// block (binary buddy splitting). Each address copy carries a version
// ("time stamp" in the paper): zero initially, incremented on every update.
// Quorum voting compares versions to decide which replica is freshest.
package addrspace

import (
	"fmt"
	"sort"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// String renders the address as a dotted quad.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Parse is the inverse of Addr.String: it reads a dotted quad.
func Parse(s string) (Addr, error) {
	var b [4]int
	if n, err := fmt.Sscanf(s, "%d.%d.%d.%d", &b[0], &b[1], &b[2], &b[3]); n != 4 || err != nil {
		return 0, fmt.Errorf("addrspace: bad address %q", s)
	}
	var a Addr
	for _, octet := range b {
		if octet < 0 || octet > 255 {
			return 0, fmt.Errorf("addrspace: bad address %q", s)
		}
		a = a<<8 | Addr(octet)
	}
	return a, nil
}

// Block is an inclusive contiguous address range [Lo, Hi]. A block with
// Lo > Hi is empty (use EmptyBlock); note the zero Block is the valid
// single-address block [0, 0], not the empty block.
type Block struct {
	Lo, Hi Addr
}

// EmptyBlock returns the canonical empty block.
func EmptyBlock() Block { return Block{Lo: 1, Hi: 0} }

// NewBlock returns the block [lo, hi]; lo must not exceed hi.
func NewBlock(lo, hi Addr) (Block, error) {
	if lo > hi {
		return Block{}, fmt.Errorf("addrspace: block lo %v > hi %v", lo, hi)
	}
	return Block{Lo: lo, Hi: hi}, nil
}

// IsEmpty reports whether the block holds no addresses.
func (b Block) IsEmpty() bool { return b.Lo > b.Hi }

// Size returns the number of addresses in the block.
func (b Block) Size() uint32 {
	if b.IsEmpty() {
		return 0
	}
	return uint32(b.Hi - b.Lo + 1)
}

// Contains reports whether a falls inside the block.
func (b Block) Contains(a Addr) bool {
	return !b.IsEmpty() && a >= b.Lo && a <= b.Hi
}

// SplitHalf divides the block into a lower and an upper half. When the size
// is odd the lower half keeps the extra address. Splitting a block of size
// < 2 is an error.
func (b Block) SplitHalf() (lower, upper Block, err error) {
	if b.Size() < 2 {
		return Block{}, Block{}, fmt.Errorf("addrspace: cannot split block %v of size %d", b, b.Size())
	}
	mid := b.Lo + Addr(b.Size()/2) // first address of the upper half
	if b.Size()%2 == 1 {
		mid = b.Lo + Addr(b.Size()/2+1)
	}
	return Block{Lo: b.Lo, Hi: mid - 1}, Block{Lo: mid, Hi: b.Hi}, nil
}

// Adjacent reports whether c begins immediately after b or vice versa.
func (b Block) Adjacent(c Block) bool {
	if b.IsEmpty() || c.IsEmpty() {
		return false
	}
	// Guard the Hi+1 increments against uint32 wraparound at the top of
	// the address space.
	const maxAddr = Addr(^uint32(0))
	return (b.Hi != maxAddr && b.Hi+1 == c.Lo) || (c.Hi != maxAddr && c.Hi+1 == b.Lo)
}

// Merge joins two adjacent blocks into one.
func (b Block) Merge(c Block) (Block, error) {
	if !b.Adjacent(c) {
		return Block{}, fmt.Errorf("addrspace: blocks %v and %v are not adjacent", b, c)
	}
	if b.Lo > c.Lo {
		b, c = c, b
	}
	return Block{Lo: b.Lo, Hi: c.Hi}, nil
}

// String renders the block as "lo-hi".
func (b Block) String() string {
	if b.IsEmpty() {
		return "<empty>"
	}
	return fmt.Sprintf("%v-%v", b.Lo, b.Hi)
}

// Status is the allocation state of one address.
type Status uint8

// Allocation states.
const (
	Free Status = iota + 1
	Occupied
)

// String returns "free" or "occupied".
func (s Status) String() string {
	switch s {
	case Free:
		return "free"
	case Occupied:
		return "occupied"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Entry is one address's replicated state: its status plus the version
// counter the paper calls a time stamp.
type Entry struct {
	Status  Status
	Version uint64
}

// Newer reports whether e carries fresher information than o.
func (e Entry) Newer(o Entry) bool { return e.Version > o.Version }

// Table tracks per-address state for one block. Addresses without an
// explicit entry are implicitly {Free, 0}, so a fresh table allocates no
// per-address storage. Tables are the unit of replication: a cluster head's
// IPSpace is a Table, and each replica in a QuorumSpace is a copy of one.
//
// Beside the entries the table keeps an index of its free addresses (see
// freeIndex) and a count of the occupied ones, so lowest-free selection
// and the counts cost the same at any occupancy. put, the one place a
// single entry is written, keeps both current; Split, Absorb and Clone
// carry them over whole.
type Table struct {
	block    Block
	entries  map[Addr]Entry
	free     freeIndex
	occupied uint32
}

// NewTable creates a table over the given non-empty block with every
// address implicitly free at version zero.
func NewTable(b Block) (*Table, error) {
	if b.IsEmpty() {
		return nil, fmt.Errorf("addrspace: table over empty block")
	}
	return &Table{block: b, entries: make(map[Addr]Entry), free: freeIndex{{b.Lo, b.Hi}}}, nil
}

// Block returns the address range this table covers.
func (t *Table) Block() Block { return t.block }

// Get returns the entry for a. The second result is false when a is outside
// the table's block.
func (t *Table) Get(a Addr) (Entry, bool) {
	if !t.block.Contains(a) {
		return Entry{}, false
	}
	if e, ok := t.entries[a]; ok {
		return e, true
	}
	return Entry{Status: Free, Version: 0}, true
}

// put writes the entry for a, which must lie inside the block and carry a
// valid status, keeping the free index and the occupied count equal to
// what a scan of the entries would find.
func (t *Table) put(a Addr, e Entry) {
	t.entries[a] = e
	i, wasFree := t.free.find(a)
	switch isFree := e.Status == Free; {
	case wasFree && !isFree:
		t.free.take(i, a)
		t.occupied++
	case !wasFree && isFree:
		t.free.release(i, a)
		t.occupied--
	}
}

func validStatus(s Status) error {
	if s != Free && s != Occupied {
		return fmt.Errorf("addrspace: invalid status %v", s)
	}
	return nil
}

// Set overwrites the entry for a (used when adopting fresher replicated
// state; it does not bump the version).
func (t *Table) Set(a Addr, e Entry) error {
	if !t.block.Contains(a) {
		return fmt.Errorf("addrspace: %v outside block %v", a, t.block)
	}
	if err := validStatus(e.Status); err != nil {
		return err
	}
	t.put(a, e)
	return nil
}

// Mark transitions a to the given status, bumping the version. It returns
// the new entry.
func (t *Table) Mark(a Addr, s Status) (Entry, error) {
	cur, ok := t.Get(a)
	if !ok {
		return Entry{}, fmt.Errorf("addrspace: %v outside block %v", a, t.block)
	}
	if err := validStatus(s); err != nil {
		return Entry{}, err
	}
	next := Entry{Status: s, Version: cur.Version + 1}
	t.put(a, next)
	return next, nil
}

// NextFree returns the lowest free address that is not below from.
// Iterating with NextFree(a+1) must stop at a == Block().Hi: the block may
// end at 255.255.255.255, where a+1 wraps.
func (t *Table) NextFree(from Addr) (Addr, bool) {
	switch i, free := t.free.find(from); {
	case free:
		return from, true
	case i < len(t.free):
		return t.free[i].lo, true
	}
	return 0, false
}

// FirstFree returns the lowest free address in the table.
func (t *Table) FirstFree() (Addr, bool) { return t.NextFree(t.block.Lo) }

// FreeCount returns how many addresses are currently free.
func (t *Table) FreeCount() uint32 { return t.block.Size() - t.occupied }

// OccupiedCount returns how many addresses are currently occupied.
func (t *Table) OccupiedCount() uint32 { return t.occupied }

// Occupied returns the occupied addresses in ascending order.
func (t *Table) Occupied() []Addr {
	var out []Addr
	for a, e := range t.entries {
		if e.Status == Occupied {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AddrEntry pairs an address with its explicit entry, for enumeration and
// serialization.
type AddrEntry struct {
	Addr  Addr
	Entry Entry
}

// Entries returns the table's explicit entries (those that differ from the
// implicit {Free, 0} default — occupied addresses and freed addresses with
// advanced versions) in ascending address order. This is the table's entire
// replicated state besides its block, so serializers round-trip exactly
// this plus Block().
func (t *Table) Entries() []AddrEntry {
	out := make([]AddrEntry, 0, len(t.entries))
	for a, e := range t.entries {
		out = append(out, AddrEntry{Addr: a, Entry: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Clone returns a deep copy (a replica in the paper's sense).
func (t *Table) Clone() *Table {
	c := &Table{
		block:    t.block,
		entries:  make(map[Addr]Entry, len(t.entries)),
		free:     append(freeIndex(nil), t.free...),
		occupied: t.occupied,
	}
	for a, e := range t.entries {
		c.entries[a] = e
	}
	return c
}

// AdoptNewer copies from other every entry whose version is strictly higher
// than the local one — the read-repair step of quorum voting. Entries
// outside t's block are ignored (other may cover a different range after
// block splits). It returns the number of entries adopted.
func (t *Table) AdoptNewer(other *Table) int {
	if other == nil {
		return 0
	}
	adopted := 0
	for a, e := range other.entries {
		if !t.block.Contains(a) {
			continue
		}
		if cur, _ := t.Get(a); e.Newer(cur) {
			t.put(a, e)
			adopted++
		}
	}
	return adopted
}

// Split divides the table into lower and upper halves, carrying each
// address's state into the half that now covers it. The receiver is
// unusable afterwards.
func (t *Table) Split() (lower, upper *Table, err error) {
	lb, ub, err := t.block.SplitHalf()
	if err != nil {
		return nil, nil, err
	}
	lower = &Table{block: lb, entries: make(map[Addr]Entry)}
	upper = &Table{block: ub, entries: make(map[Addr]Entry)}
	for a, e := range t.entries {
		half := upper
		if lb.Contains(a) {
			half = lower
		}
		half.entries[a] = e
		if e.Status == Occupied {
			half.occupied++
		}
	}
	lower.free, upper.free = t.free.split(ub.Lo)
	t.entries, t.free = nil, nil
	return lower, upper, nil
}

// Absorb extends the table to cover an adjacent block (a departing cluster
// head returning its IPSpace), importing the other table's entries.
func (t *Table) Absorb(other *Table) error {
	if other == nil {
		return fmt.Errorf("addrspace: absorb nil table")
	}
	merged, err := t.block.Merge(other.block)
	if err != nil {
		return err
	}
	if t.block.Lo < other.block.Lo {
		t.free = t.free.join(other.free)
	} else {
		t.free = other.free.join(t.free)
	}
	t.block = merged
	t.occupied += other.occupied
	for a, e := range other.entries {
		t.entries[a] = e
	}
	return nil
}

// String summarizes the table.
func (t *Table) String() string {
	return fmt.Sprintf("table %v (%d free / %d occupied)", t.block, t.FreeCount(), t.OccupiedCount())
}
