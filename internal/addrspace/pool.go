package addrspace

import (
	"fmt"
	"sort"
)

// Pool is an ordered collection of Tables managed by one cluster head. A
// head usually owns a single table (its buddy-split IPSpace), but graceful
// departures can return non-adjacent blocks, so the general shape is a
// list. Pool methods keep the tables sorted by block start and merge
// adjacent blocks opportunistically.
type Pool struct {
	tables []*Table
}

// NewPool builds a pool from the given tables (nil entries are skipped).
func NewPool(tabs ...*Table) *Pool {
	p := &Pool{}
	for _, t := range tabs {
		if t != nil {
			p.Add(t)
		}
	}
	return p
}

// Add inserts a table, absorbing it into an adjacent one when possible.
func (p *Pool) Add(t *Table) {
	if t == nil {
		return
	}
	for _, cur := range p.tables {
		if cur.Block().Adjacent(t.Block()) {
			if err := cur.Absorb(t); err == nil {
				p.normalize()
				return
			}
		}
	}
	p.tables = append(p.tables, t)
	p.normalize()
}

// normalize keeps tables sorted by block start and merges newly adjacent
// neighbors.
func (p *Pool) normalize() {
	sort.Slice(p.tables, func(i, j int) bool { return p.tables[i].Block().Lo < p.tables[j].Block().Lo })
	for i := 0; i+1 < len(p.tables); {
		if p.tables[i].Block().Adjacent(p.tables[i+1].Block()) {
			if err := p.tables[i].Absorb(p.tables[i+1]); err == nil {
				p.tables = append(p.tables[:i+1], p.tables[i+2:]...)
				continue
			}
		}
		i++
	}
}

// Empty reports whether the pool holds no tables.
func (p *Pool) Empty() bool { return len(p.tables) == 0 }

// Tables returns the pool's tables in block order. Callers must not mutate
// the slice; mutating the tables mutates the pool.
func (p *Pool) Tables() []*Table { return p.tables }

// Blocks returns the blocks covered, in ascending order.
func (p *Pool) Blocks() []Block {
	out := make([]Block, len(p.tables))
	for i, t := range p.tables {
		out[i] = t.Block()
	}
	return out
}

// Size returns the total number of addresses in the pool.
func (p *Pool) Size() uint32 {
	var n uint32
	for _, t := range p.tables {
		n += t.Block().Size()
	}
	return n
}

// FreeCount returns the number of free addresses across all tables.
func (p *Pool) FreeCount() uint32 {
	var n uint32
	for _, t := range p.tables {
		n += t.FreeCount()
	}
	return n
}

// OccupiedCount returns the number of occupied addresses.
func (p *Pool) OccupiedCount() uint32 { return p.Size() - p.FreeCount() }

// Contains reports whether any table covers a.
func (p *Pool) Contains(a Addr) bool {
	_, ok := p.Get(a)
	return ok
}

// Get returns the entry for a from the covering table.
func (p *Pool) Get(a Addr) (Entry, bool) {
	for _, t := range p.tables {
		if e, ok := t.Get(a); ok {
			return e, true
		}
	}
	return Entry{}, false
}

// Set overwrites the entry for a in the covering table.
func (p *Pool) Set(a Addr, e Entry) error {
	for _, t := range p.tables {
		if t.Block().Contains(a) {
			return t.Set(a, e)
		}
	}
	return fmt.Errorf("addrspace: %v not covered by pool", a)
}

// Mark transitions a to status s, bumping its version.
func (p *Pool) Mark(a Addr, s Status) (Entry, error) {
	for _, t := range p.tables {
		if t.Block().Contains(a) {
			return t.Mark(a, s)
		}
	}
	return Entry{}, fmt.Errorf("addrspace: %v not covered by pool", a)
}

// FirstFree returns the lowest free address across the pool.
func (p *Pool) FirstFree() (Addr, bool) {
	for _, t := range p.tables {
		if a, ok := t.FirstFree(); ok {
			return a, true
		}
	}
	return 0, false
}

// FirstFreeAfter returns the lowest free address strictly greater than a.
// Used to iterate proposals when a quorum reports the previous candidate
// occupied.
func (p *Pool) FirstFreeAfter(a Addr) (Addr, bool) {
	if a == Addr(^uint32(0)) {
		return 0, false
	}
	for _, t := range p.tables {
		if t.Block().Hi <= a {
			continue // no addresses strictly above a in this table
		}
		if c, ok := t.NextFree(a + 1); ok {
			return c, true
		}
	}
	return 0, false
}

// SplitLargest splits the table with the most free addresses, keeping the
// lower half in the pool and returning the upper half (the block handed to
// a new cluster head). It fails when no table has at least two addresses.
func (p *Pool) SplitLargest() (*Table, error) {
	best := -1
	var bestFree uint32
	for i, t := range p.tables {
		if t.Block().Size() < 2 {
			continue
		}
		if f := t.FreeCount(); best == -1 || f > bestFree {
			best, bestFree = i, f
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("addrspace: no splittable table in pool")
	}
	lower, upper, err := p.tables[best].Split()
	if err != nil {
		return nil, err
	}
	p.tables[best] = lower
	p.normalize()
	return upper, nil
}

// Clone deep-copies the pool (for replica distribution).
func (p *Pool) Clone() *Pool {
	c := &Pool{tables: make([]*Table, len(p.tables))}
	for i, t := range p.tables {
		c.tables[i] = t.Clone()
	}
	return c
}

// AdoptNewer merges fresher entries from other into matching tables,
// returning the number of entries adopted.
func (p *Pool) AdoptNewer(other *Pool) int {
	if other == nil {
		return 0
	}
	adopted := 0
	for _, t := range p.tables {
		for _, o := range other.tables {
			adopted += t.AdoptNewer(o)
		}
	}
	return adopted
}

// Occupied returns all occupied addresses across the pool in ascending
// order.
func (p *Pool) Occupied() []Addr {
	var out []Addr
	for _, t := range p.tables {
		out = append(out, t.Occupied()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String summarizes the pool.
func (p *Pool) String() string {
	return fmt.Sprintf("pool %v (%d free / %d occupied)", p.Blocks(), p.FreeCount(), p.OccupiedCount())
}
