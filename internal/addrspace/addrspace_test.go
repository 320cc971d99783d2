package addrspace

import (
	"math"
	"testing"
	"testing/quick"
)

func mustBlock(t *testing.T, lo, hi Addr) Block {
	t.Helper()
	b, err := NewBlock(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustTable(t *testing.T, b Block) *Table {
	t.Helper()
	tab, err := NewTable(b)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestAddrString(t *testing.T) {
	cases := map[Addr]string{
		0:              "0.0.0.0",
		0x0A000001:     "10.0.0.1",
		0xC0A80101:     "192.168.1.1",
		math.MaxUint32: "255.255.255.255",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("Addr(%d).String() = %q, want %q", uint32(a), got, want)
		}
	}
}

func TestNewBlockValidation(t *testing.T) {
	if _, err := NewBlock(10, 5); err == nil {
		t.Error("NewBlock(10,5) accepted")
	}
	b, err := NewBlock(5, 5)
	if err != nil {
		t.Fatalf("single-address block rejected: %v", err)
	}
	if b.Size() != 1 {
		t.Errorf("Size = %d, want 1", b.Size())
	}
}

func TestBlockBasics(t *testing.T) {
	b := mustBlock(t, 100, 199)
	if b.Size() != 100 {
		t.Errorf("Size = %d, want 100", b.Size())
	}
	if !b.Contains(100) || !b.Contains(199) || !b.Contains(150) {
		t.Error("Contains false for in-range address")
	}
	if b.Contains(99) || b.Contains(200) {
		t.Error("Contains true for out-of-range address")
	}
	empty := Block{Lo: 1, Hi: 0}
	if !empty.IsEmpty() || empty.Size() != 0 || empty.Contains(0) {
		t.Error("Lo > Hi not treated as empty")
	}
	var zero Block
	if zero.IsEmpty() || zero.Size() != 1 || !zero.Contains(0) {
		t.Error("zero Block is the single-address block [0,0]")
	}
}

func TestSplitHalfEven(t *testing.T) {
	b := mustBlock(t, 0, 255)
	lo, hi, err := b.SplitHalf()
	if err != nil {
		t.Fatal(err)
	}
	if lo != (Block{0, 127}) || hi != (Block{128, 255}) {
		t.Errorf("SplitHalf = %v, %v", lo, hi)
	}
	if lo.Size()+hi.Size() != b.Size() {
		t.Error("split halves do not cover original")
	}
}

func TestSplitHalfOdd(t *testing.T) {
	b := mustBlock(t, 0, 4)
	lo, hi, err := b.SplitHalf()
	if err != nil {
		t.Fatal(err)
	}
	if lo != (Block{0, 2}) || hi != (Block{3, 4}) {
		t.Errorf("SplitHalf odd = %v, %v, want 0-2, 3-4", lo, hi)
	}
}

func TestSplitHalfTooSmall(t *testing.T) {
	b := mustBlock(t, 7, 7)
	if _, _, err := b.SplitHalf(); err == nil {
		t.Error("split of size-1 block accepted")
	}
}

func TestAdjacentAndMerge(t *testing.T) {
	a := mustBlock(t, 0, 9)
	b := mustBlock(t, 10, 19)
	c := mustBlock(t, 21, 30)
	if !a.Adjacent(b) || !b.Adjacent(a) {
		t.Error("adjacent blocks not detected")
	}
	if b.Adjacent(c) {
		t.Error("non-adjacent blocks reported adjacent")
	}
	m, err := a.Merge(b)
	if err != nil {
		t.Fatal(err)
	}
	if m != (Block{0, 19}) {
		t.Errorf("Merge = %v, want 0-19", m)
	}
	if m2, err := b.Merge(a); err != nil || m2 != m {
		t.Errorf("Merge not symmetric: %v, %v", m2, err)
	}
	if _, err := b.Merge(c); err == nil {
		t.Error("merge of non-adjacent blocks accepted")
	}
	empty := Block{Lo: 1, Hi: 0}
	if empty.Adjacent(a) || a.Adjacent(empty) {
		t.Error("empty block reported adjacent")
	}
	top := mustBlock(t, math.MaxUint32-1, math.MaxUint32)
	bottom := mustBlock(t, 0, 5)
	if top.Adjacent(bottom) {
		t.Error("wraparound adjacency at top of address space")
	}
}

func TestStatusString(t *testing.T) {
	if Free.String() != "free" || Occupied.String() != "occupied" {
		t.Error("status names wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status renders empty")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(Block{Lo: 1, Hi: 0}); err == nil {
		t.Error("table over empty block accepted")
	}
}

func TestTableImplicitFree(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 10, 19))
	e, ok := tab.Get(15)
	if !ok || e.Status != Free || e.Version != 0 {
		t.Errorf("Get(15) = %+v,%v, want free v0", e, ok)
	}
	if _, ok := tab.Get(9); ok {
		t.Error("Get outside block reported ok")
	}
	if tab.FreeCount() != 10 || tab.OccupiedCount() != 0 {
		t.Errorf("counts = %d free / %d occ", tab.FreeCount(), tab.OccupiedCount())
	}
}

func TestMarkBumpsVersion(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 9))
	e1, err := tab.Mark(3, Occupied)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Status != Occupied || e1.Version != 1 {
		t.Errorf("first Mark = %+v, want occupied v1", e1)
	}
	e2, _ := tab.Mark(3, Free)
	if e2.Status != Free || e2.Version != 2 {
		t.Errorf("second Mark = %+v, want free v2", e2)
	}
	if _, err := tab.Mark(100, Occupied); err == nil {
		t.Error("Mark outside block accepted")
	}
}

func TestSetValidation(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 9))
	if err := tab.Set(5, Entry{Status: Occupied, Version: 7}); err != nil {
		t.Fatal(err)
	}
	if e, _ := tab.Get(5); e.Version != 7 {
		t.Errorf("Set did not store version, got %+v", e)
	}
	if err := tab.Set(50, Entry{Status: Free}); err == nil {
		t.Error("Set outside block accepted")
	}
	if err := tab.Set(5, Entry{Status: Status(0)}); err == nil {
		t.Error("Set with invalid status accepted")
	}
}

func TestFirstFreeSkipsOccupied(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 3))
	for _, a := range []Addr{0, 1} {
		if _, err := tab.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	a, ok := tab.FirstFree()
	if !ok || a != 2 {
		t.Errorf("FirstFree = %v,%v, want 2,true", a, ok)
	}
}

func TestFirstFreeExhausted(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 2))
	for a := Addr(0); a <= 2; a++ {
		if _, err := tab.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tab.FirstFree(); ok {
		t.Error("FirstFree found address in full table")
	}
	if tab.FreeCount() != 0 {
		t.Errorf("FreeCount = %d, want 0", tab.FreeCount())
	}
}

func TestFirstFreeAtMaxAddrNoOverflow(t *testing.T) {
	tab := mustTable(t, mustBlock(t, math.MaxUint32-1, math.MaxUint32))
	if _, err := tab.Mark(math.MaxUint32-1, Occupied); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Mark(math.MaxUint32, Occupied); err != nil {
		t.Fatal(err)
	}
	if _, ok := tab.FirstFree(); ok {
		t.Error("FirstFree found address in full table at address-space edge")
	}
}

func TestOccupiedSorted(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 9))
	for _, a := range []Addr{7, 2, 5} {
		if _, err := tab.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	occ := tab.Occupied()
	want := []Addr{2, 5, 7}
	if len(occ) != len(want) {
		t.Fatalf("Occupied = %v, want %v", occ, want)
	}
	for i := range want {
		if occ[i] != want[i] {
			t.Fatalf("Occupied = %v, want %v", occ, want)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 9))
	if _, err := tab.Mark(1, Occupied); err != nil {
		t.Fatal(err)
	}
	c := tab.Clone()
	if _, err := c.Mark(2, Occupied); err != nil {
		t.Fatal(err)
	}
	if e, _ := tab.Get(2); e.Status == Occupied {
		t.Error("mutating clone affected original")
	}
	if e, _ := c.Get(1); e.Status != Occupied {
		t.Error("clone lost entry")
	}
}

func TestAdoptNewer(t *testing.T) {
	local := mustTable(t, mustBlock(t, 0, 9))
	if err := local.Set(1, Entry{Status: Occupied, Version: 5}); err != nil {
		t.Fatal(err)
	}
	remote := mustTable(t, mustBlock(t, 0, 9))
	if err := remote.Set(1, Entry{Status: Free, Version: 3}); err != nil { // stale
		t.Fatal(err)
	}
	if err := remote.Set(2, Entry{Status: Occupied, Version: 4}); err != nil { // fresh
		t.Fatal(err)
	}
	n := local.AdoptNewer(remote)
	if n != 1 {
		t.Errorf("AdoptNewer = %d entries, want 1", n)
	}
	if e, _ := local.Get(1); e.Version != 5 || e.Status != Occupied {
		t.Errorf("stale entry overwrote fresh: %+v", e)
	}
	if e, _ := local.Get(2); e.Version != 4 || e.Status != Occupied {
		t.Errorf("fresh entry not adopted: %+v", e)
	}
	if local.AdoptNewer(nil) != 0 {
		t.Error("AdoptNewer(nil) != 0")
	}
}

func TestAdoptNewerIgnoresOutOfBlock(t *testing.T) {
	local := mustTable(t, mustBlock(t, 0, 4))
	remote := mustTable(t, mustBlock(t, 0, 9))
	if err := remote.Set(8, Entry{Status: Occupied, Version: 9}); err != nil {
		t.Fatal(err)
	}
	if n := local.AdoptNewer(remote); n != 0 {
		t.Errorf("adopted %d out-of-block entries", n)
	}
}

func TestTableSplitCarriesState(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 9))
	if _, err := tab.Mark(2, Occupied); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Mark(8, Occupied); err != nil {
		t.Fatal(err)
	}
	lo, hi, err := tab.Split()
	if err != nil {
		t.Fatal(err)
	}
	if lo.Block() != (Block{0, 4}) || hi.Block() != (Block{5, 9}) {
		t.Fatalf("split blocks = %v, %v", lo.Block(), hi.Block())
	}
	if e, _ := lo.Get(2); e.Status != Occupied {
		t.Error("lower half lost occupied entry")
	}
	if e, _ := hi.Get(8); e.Status != Occupied {
		t.Error("upper half lost occupied entry")
	}
	if lo.OccupiedCount() != 1 || hi.OccupiedCount() != 1 {
		t.Errorf("occupied counts = %d, %d", lo.OccupiedCount(), hi.OccupiedCount())
	}
}

func TestAbsorb(t *testing.T) {
	a := mustTable(t, mustBlock(t, 0, 4))
	b := mustTable(t, mustBlock(t, 5, 9))
	if _, err := b.Mark(7, Occupied); err != nil {
		t.Fatal(err)
	}
	if err := a.Absorb(b); err != nil {
		t.Fatal(err)
	}
	if a.Block() != (Block{0, 9}) {
		t.Errorf("absorbed block = %v", a.Block())
	}
	if e, _ := a.Get(7); e.Status != Occupied {
		t.Error("absorbed entry lost")
	}
	c := mustTable(t, mustBlock(t, 20, 29))
	if err := a.Absorb(c); err == nil {
		t.Error("absorb of non-adjacent table accepted")
	}
	if err := a.Absorb(nil); err == nil {
		t.Error("absorb nil accepted")
	}
}

// Property: SplitHalf partitions any block of size >= 2 exactly.
func TestPropertySplitPartition(t *testing.T) {
	f := func(lo uint16, span uint16) bool {
		b := Block{Lo: Addr(lo), Hi: Addr(lo) + Addr(span) + 1} // size >= 2
		l, u, err := b.SplitHalf()
		if err != nil {
			return false
		}
		if l.Size()+u.Size() != b.Size() {
			return false
		}
		if l.Hi+1 != u.Lo || l.Lo != b.Lo || u.Hi != b.Hi {
			return false
		}
		// Lower half keeps the extra address on odd sizes.
		return l.Size() >= u.Size() && l.Size()-u.Size() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: repeated splits followed by merges restore the original block.
func TestPropertySplitMergeRoundTrip(t *testing.T) {
	f := func(lo uint16, span uint8) bool {
		b := Block{Lo: Addr(lo), Hi: Addr(lo) + Addr(span) + 1}
		l, u, err := b.SplitHalf()
		if err != nil {
			return false
		}
		m, err := l.Merge(u)
		return err == nil && m == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: versions are monotonically non-decreasing under any Mark
// sequence.
func TestPropertyVersionMonotonic(t *testing.T) {
	f := func(ops []bool) bool {
		tab, err := NewTable(Block{Lo: 0, Hi: 0})
		if err != nil {
			return false
		}
		var last uint64
		for _, occupy := range ops {
			st := Free
			if occupy {
				st = Occupied
			}
			e, err := tab.Mark(0, st)
			if err != nil || e.Version <= last {
				return false
			}
			last = e.Version
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FreeCount + OccupiedCount == Size under random marking.
func TestPropertyCountsSum(t *testing.T) {
	f := func(marks []uint8) bool {
		tab, err := NewTable(Block{Lo: 0, Hi: 255})
		if err != nil {
			return false
		}
		for _, m := range marks {
			st := Occupied
			if m%3 == 0 {
				st = Free
			}
			if _, err := tab.Mark(Addr(m), st); err != nil {
				return false
			}
		}
		return tab.FreeCount()+tab.OccupiedCount() == tab.Block().Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
