package addrspace

import (
	"testing"
	"testing/quick"
)

func poolOver(t *testing.T, lo, hi Addr) *Pool {
	t.Helper()
	return NewPool(mustTable(t, mustBlock(t, lo, hi)))
}

func TestNewPoolSkipsNil(t *testing.T) {
	p := NewPool(nil, nil)
	if len(p.Tables()) != 0 || p.Size() != 0 {
		t.Error("pool of nils not empty")
	}
}

func TestPoolAddMergesAdjacent(t *testing.T) {
	p := poolOver(t, 0, 9)
	p.Add(mustTable(t, mustBlock(t, 10, 19)))
	if len(p.Tables()) != 1 {
		t.Fatalf("adjacent tables not merged: %v", p.Blocks())
	}
	if p.Size() != 20 {
		t.Errorf("Size = %d, want 20", p.Size())
	}
}

func TestPoolAddKeepsDisjointSorted(t *testing.T) {
	p := poolOver(t, 100, 109)
	p.Add(mustTable(t, mustBlock(t, 0, 9)))
	blocks := p.Blocks()
	if len(blocks) != 2 || blocks[0].Lo != 0 || blocks[1].Lo != 100 {
		t.Errorf("Blocks = %v, want sorted [0-9, 100-109]", blocks)
	}
}

func TestPoolAddBridgesGap(t *testing.T) {
	p := poolOver(t, 0, 9)
	p.Add(mustTable(t, mustBlock(t, 20, 29)))
	p.Add(mustTable(t, mustBlock(t, 10, 19))) // bridges the two
	if len(p.Tables()) != 1 || p.Blocks()[0] != (Block{0, 29}) {
		t.Errorf("bridge merge failed: %v", p.Blocks())
	}
}

func TestPoolGetSetMark(t *testing.T) {
	p := poolOver(t, 0, 9)
	p.Add(mustTable(t, mustBlock(t, 100, 109)))
	if _, err := p.Mark(105, Occupied); err != nil {
		t.Fatal(err)
	}
	if e, ok := p.Get(105); !ok || e.Status != Occupied {
		t.Errorf("Get(105) = %+v,%v", e, ok)
	}
	if _, ok := p.Get(50); ok {
		t.Error("Get outside pool ok")
	}
	if err := p.Set(3, Entry{Status: Occupied, Version: 4}); err != nil {
		t.Fatal(err)
	}
	if err := p.Set(50, Entry{Status: Free, Version: 1}); err == nil {
		t.Error("Set outside pool accepted")
	}
	if _, err := p.Mark(50, Free); err == nil {
		t.Error("Mark outside pool accepted")
	}
	if !p.Contains(3) || p.Contains(50) {
		t.Error("Contains wrong")
	}
}

func TestPoolFirstFreeAcrossTables(t *testing.T) {
	p := poolOver(t, 0, 1)
	p.Add(mustTable(t, mustBlock(t, 100, 101)))
	for a := Addr(0); a <= 1; a++ {
		if _, err := p.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	a, ok := p.FirstFree()
	if !ok || a != 100 {
		t.Errorf("FirstFree = %v,%v, want 100,true", a, ok)
	}
}

func TestPoolFirstFreeAfter(t *testing.T) {
	p := poolOver(t, 0, 4)
	p.Add(mustTable(t, mustBlock(t, 10, 14)))
	cases := []struct {
		after Addr
		want  Addr
		ok    bool
	}{
		{0, 1, true},
		{4, 10, true},
		{9, 10, true},
		{12, 13, true},
		{14, 0, false},
		{100, 0, false},
	}
	for _, c := range cases {
		got, ok := p.FirstFreeAfter(c.after)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("FirstFreeAfter(%v) = %v,%v, want %v,%v", c.after, got, ok, c.want, c.ok)
		}
	}
	if _, err := p.Mark(13, Occupied); err != nil {
		t.Fatal(err)
	}
	if got, ok := p.FirstFreeAfter(12); !ok || got != 14 {
		t.Errorf("FirstFreeAfter(12) with 13 occupied = %v,%v, want 14,true", got, ok)
	}
}

func TestPoolFirstFreeAfterMaxAddr(t *testing.T) {
	p := poolOver(t, 0, 4)
	if _, ok := p.FirstFreeAfter(Addr(^uint32(0))); ok {
		t.Error("FirstFreeAfter(max) found an address")
	}
}

func TestPoolSplitLargest(t *testing.T) {
	p := poolOver(t, 0, 9)                      // 10 free
	p.Add(mustTable(t, mustBlock(t, 100, 139))) // 40 free: the largest
	upper, err := p.SplitLargest()
	if err != nil {
		t.Fatal(err)
	}
	if upper.Block() != (Block{120, 139}) {
		t.Errorf("split upper = %v, want 120-139", upper.Block())
	}
	blocks := p.Blocks()
	if len(blocks) != 2 || blocks[1] != (Block{100, 119}) {
		t.Errorf("pool after split = %v", blocks)
	}
	if p.Size() != 30 {
		t.Errorf("pool size after split = %d, want 30", p.Size())
	}
}

func TestPoolSplitLargestUsesFreeCount(t *testing.T) {
	p := poolOver(t, 0, 9)
	big := mustTable(t, mustBlock(t, 100, 139))
	for a := Addr(100); a <= 138; a++ { // 39 of 40 occupied: 1 free
		if _, err := big.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	p.Add(big)
	upper, err := p.SplitLargest()
	if err != nil {
		t.Fatal(err)
	}
	// The 10-address fully-free table wins over the 40-address nearly-full
	// one.
	if upper.Block() != (Block{5, 9}) {
		t.Errorf("split upper = %v, want 5-9", upper.Block())
	}
}

func TestPoolSplitLargestFailsWhenUnsplittable(t *testing.T) {
	p := poolOver(t, 7, 7)
	if _, err := p.SplitLargest(); err == nil {
		t.Error("split of single-address pool accepted")
	}
	if _, err := NewPool().SplitLargest(); err == nil {
		t.Error("split of empty pool accepted")
	}
}

func TestPoolCloneIndependent(t *testing.T) {
	p := poolOver(t, 0, 9)
	if _, err := p.Mark(1, Occupied); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if _, err := c.Mark(2, Occupied); err != nil {
		t.Fatal(err)
	}
	if e, _ := p.Get(2); e.Status == Occupied {
		t.Error("clone mutation leaked into original")
	}
	if e, _ := c.Get(1); e.Status != Occupied {
		t.Error("clone lost state")
	}
}

func TestPoolAdoptNewer(t *testing.T) {
	p := poolOver(t, 0, 9)
	o := poolOver(t, 0, 9)
	if err := o.Set(4, Entry{Status: Occupied, Version: 3}); err != nil {
		t.Fatal(err)
	}
	if n := p.AdoptNewer(o); n != 1 {
		t.Errorf("AdoptNewer = %d, want 1", n)
	}
	if e, _ := p.Get(4); e.Status != Occupied || e.Version != 3 {
		t.Errorf("entry after adopt = %+v", e)
	}
	if p.AdoptNewer(nil) != 0 {
		t.Error("AdoptNewer(nil) != 0")
	}
}

func TestPoolOccupiedSorted(t *testing.T) {
	p := poolOver(t, 100, 109)
	p.Add(mustTable(t, mustBlock(t, 0, 9)))
	for _, a := range []Addr{105, 3} {
		if _, err := p.Mark(a, Occupied); err != nil {
			t.Fatal(err)
		}
	}
	occ := p.Occupied()
	if len(occ) != 2 || occ[0] != 3 || occ[1] != 105 {
		t.Errorf("Occupied = %v, want [3 105]", occ)
	}
}

// Property: repeated SplitLargest never loses or duplicates addresses.
func TestPropertyPoolSplitConserves(t *testing.T) {
	f := func(splits uint8) bool {
		p := NewPool()
		tab, err := NewTable(Block{Lo: 0, Hi: 1023})
		if err != nil {
			return false
		}
		p.Add(tab)
		given := uint32(0)
		for i := 0; i < int(splits%20); i++ {
			up, err := p.SplitLargest()
			if err != nil {
				break // pool down to a single address: unsplittable
			}
			given += up.Block().Size()
		}
		return p.Size()+given == 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: FirstFreeAfter returns strictly increasing addresses when
// iterated, and each returned address is free and pool-covered.
func TestPropertyFirstFreeAfterIterates(t *testing.T) {
	f := func(occupied []uint8) bool {
		p := NewPool()
		tab, err := NewTable(Block{Lo: 0, Hi: 255})
		if err != nil {
			return false
		}
		p.Add(tab)
		for _, a := range occupied {
			if _, err := p.Mark(Addr(a), Occupied); err != nil {
				return false
			}
		}
		prev, ok := p.FirstFree()
		if !ok {
			return p.FreeCount() == 0
		}
		count := uint32(1)
		for {
			next, ok := p.FirstFreeAfter(prev)
			if !ok {
				break
			}
			if next <= prev {
				return false
			}
			if e, covered := p.Get(next); !covered || e.Status == Occupied {
				return false
			}
			prev = next
			count++
		}
		return count == p.FreeCount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
