package addrspace

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

const maxAddr = Addr(^uint32(0))

// scanNextFree is the linear scan the free index replaced, kept as the
// reference the index is compared against.
func scanNextFree(tab *Table, from Addr) (Addr, bool) {
	b := tab.Block()
	if from > b.Hi {
		return 0, false
	}
	if from < b.Lo {
		from = b.Lo
	}
	for a := from; ; a++ {
		if e, _ := tab.Get(a); e.Status == Free {
			return a, true
		}
		if a == b.Hi {
			return 0, false
		}
	}
}

// checkIndex compares everything the index answers with a scan of the
// entries, and the runs themselves with the shape freeIndex promises.
func checkIndex(t testing.TB, tab *Table) {
	t.Helper()
	b := tab.Block()
	var occupied []Addr
	free := uint32(0)
	for a := b.Lo; ; a++ {
		if e, _ := tab.Get(a); e.Status == Free {
			free++
		} else {
			occupied = append(occupied, a)
		}
		got, gotOK := tab.NextFree(a)
		want, wantOK := scanNextFree(tab, a)
		if got != want || gotOK != wantOK {
			t.Fatalf("%v: NextFree(%v) = %v, %v; scan says %v, %v", tab, a, got, gotOK, want, wantOK)
		}
		if a == b.Hi {
			break
		}
	}
	first, firstOK := tab.FirstFree()
	if want, wantOK := scanNextFree(tab, b.Lo); first != want || firstOK != wantOK {
		t.Fatalf("%v: FirstFree = %v, %v; scan says %v, %v", tab, first, firstOK, want, wantOK)
	}
	if b.Lo > 0 {
		if got, ok := tab.NextFree(b.Lo - 1); got != first || ok != firstOK {
			t.Fatalf("%v: NextFree below the block = %v, %v; want FirstFree %v, %v", tab, got, ok, first, firstOK)
		}
	}
	if b.Hi < maxAddr {
		if got, ok := tab.NextFree(b.Hi + 1); ok {
			t.Fatalf("%v: NextFree above the block = %v, want none", tab, got)
		}
	}
	if got := tab.FreeCount(); got != free {
		t.Fatalf("%v: FreeCount = %d, scan counts %d", tab, got, free)
	}
	if got := tab.OccupiedCount(); got != uint32(len(occupied)) {
		t.Fatalf("%v: OccupiedCount = %d, scan counts %d", tab, got, len(occupied))
	}
	if got := tab.Occupied(); !reflect.DeepEqual(got, occupied) {
		t.Fatalf("%v: Occupied() = %v, scan finds %v", tab, got, occupied)
	}
	for i, r := range tab.free {
		if r.lo > r.hi || r.lo < b.Lo || r.hi > b.Hi {
			t.Fatalf("%v: run %d = %v outside the block or inverted", tab, i, r)
		}
		if i > 0 && tab.free[i-1].hi+1 >= r.lo {
			t.Fatalf("%v: runs %v and %v overlap or touch", tab, tab.free[i-1], r)
		}
	}
}

// indexBlocks are the starting blocks the op driver picks from: a block at
// the bottom of the address space, one ending at 255.255.255.255, an
// odd-sized one in the middle, and a single address.
var indexBlocks = []Block{
	{Lo: 0, Hi: 15},
	{Lo: maxAddr - 11, Hi: maxAddr},
	{Lo: 1000, Hi: 1022},
	{Lo: 7, Hi: 7},
}

// runIndexOps interprets data as a sequence of table operations — Set,
// Mark, AdoptNewer, Split, Absorb, Clone — over a small set of tables
// descended from one starting block, and checks every table's index
// against the scan after every step (all of them, so that a write leaking
// from one table into a clone or a split sibling is caught).
func runIndexOps(t testing.TB, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	first, err := NewTable(indexBlocks[next()%len(indexBlocks)])
	if err != nil {
		t.Fatal(err)
	}
	tabs := []*Table{first}
	checkIndex(t, first)
	for len(data) > 0 {
		op := next()
		k := next() % len(tabs)
		tab := tabs[k]
		addr := func() Addr { return tab.Block().Lo + Addr(uint32(next())%tab.Block().Size()) }
		status := func() Status { return Status(next()%2) + Free }
		switch op % 7 {
		case 0:
			if err := tab.Set(addr(), Entry{Status: status(), Version: uint64(next() % 8)}); err != nil {
				t.Fatal(err)
			}
		case 1, 2: // twice the weight: Mark is what fills a table up
			if _, err := tab.Mark(addr(), status()); err != nil {
				t.Fatal(err)
			}
		case 3:
			tab.AdoptNewer(tabs[next()%len(tabs)])
		case 4:
			if lower, upper, err := tab.Split(); err == nil {
				tabs[k] = lower
				tabs = append(tabs, upper)
			}
		case 5:
			for j, other := range tabs {
				if tab.Block().Adjacent(other.Block()) {
					if err := tab.Absorb(other); err != nil {
						t.Fatal(err)
					}
					checkIndex(t, other) // Absorb only reads its argument
					tabs = append(tabs[:j], tabs[j+1:]...)
					break
				}
			}
		case 6:
			if len(tabs) < 8 {
				tabs = append(tabs, tab.Clone())
			}
		}
		for _, tab := range tabs {
			checkIndex(t, tab)
		}
	}
}

func TestPropertyIndexMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 300; round++ {
		data := make([]byte, 1+rng.Intn(160))
		rng.Read(data)
		runIndexOps(t, data)
	}
}

func TestIndexFullTable(t *testing.T) {
	for _, b := range indexBlocks {
		tab := mustTable(t, b)
		for a := b.Lo; ; a++ {
			if got, ok := tab.FirstFree(); !ok || got != a {
				t.Fatalf("%v: FirstFree = %v, %v; want %v", tab, got, ok, a)
			}
			if _, err := tab.Mark(a, Occupied); err != nil {
				t.Fatal(err)
			}
			checkIndex(t, tab)
			if a == b.Hi {
				break
			}
		}
		if a, ok := tab.FirstFree(); ok {
			t.Fatalf("%v: full table offers %v", tab, a)
		}
		if tab.FreeCount() != 0 || tab.OccupiedCount() != b.Size() {
			t.Fatalf("%v: counts of a full table", tab)
		}
		checkIndex(t, tab.Clone())
		if _, err := tab.Mark(b.Hi, Free); err != nil {
			t.Fatal(err)
		}
		checkIndex(t, tab)
		if a, ok := tab.FirstFree(); !ok || a != b.Hi {
			t.Fatalf("%v: FirstFree = %v, %v; want the freed %v", tab, a, ok, b.Hi)
		}
	}
}

func TestMarkRejectsInvalidStatus(t *testing.T) {
	tab := mustTable(t, mustBlock(t, 0, 3))
	if _, err := tab.Mark(1, Status(0)); err == nil {
		t.Fatal("Mark accepted status 0")
	}
	checkIndex(t, tab)
}

func FuzzTableIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 1, 4, 0, 6, 0, 1, 1, 2, 0, 5, 0})
	f.Add([]byte{1, 1, 0, 11, 1, 1, 0, 11, 0, 4, 0, 5, 0})
	f.Add([]byte{2, 0, 0, 5, 1, 3, 6, 0, 1, 1, 9, 1, 3, 0, 1})
	f.Add([]byte{3, 1, 0, 0, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		runIndexOps(t, data)
	})
}

// churnTable is a table over a 16k block with its n lowest addresses
// occupied, plus the list of occupied addresses churn departs from.
func churnTable(tb testing.TB, n int) (*Table, []Addr) {
	tab, err := NewTable(Block{Lo: 0x0A000000, Hi: 0x0A003FFF})
	if err != nil {
		tb.Fatal(err)
	}
	held := make([]Addr, 0, n+2)
	for i := 0; i < n; i++ {
		held = append(held, arrive(tb, tab))
	}
	return tab, held
}

func arrive(tb testing.TB, tab *Table) Addr {
	a, ok := tab.FirstFree()
	if !ok {
		tb.Fatal("table full")
	}
	if _, err := tab.Mark(a, Occupied); err != nil {
		tb.Fatal(err)
	}
	return a
}

// churn runs the paper's steady state on a filled table: a random holder
// departs, two nodes arrive (the first re-takes the freed address, the
// second must look past the whole occupied prefix), another random holder
// departs. Occupancy is the same before and after.
func churn(tb testing.TB, tab *Table, held []Addr, rng *rand.Rand, cycles int) []Addr {
	depart := func() {
		j := rng.Intn(len(held))
		a := held[j]
		held[j] = held[len(held)-1]
		held = held[:len(held)-1]
		if _, err := tab.Mark(a, Free); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < cycles; i++ {
		depart()
		held = append(held, arrive(tb, tab), arrive(tb, tab))
		depart()
	}
	return held
}

func BenchmarkTableFill4k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		churnTable(b, 4000)
	}
}

func benchmarkTableChurn(b *testing.B, occupied int) {
	tab, held := churnTable(b, occupied)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	churn(b, tab, held, rng, b.N)
}

func BenchmarkTableChurn4k(b *testing.B)  { benchmarkTableChurn(b, 4000) }
func BenchmarkTableChurn12k(b *testing.B) { benchmarkTableChurn(b, 12000) }

// TestChurnCostIndependentOfOccupancy pins what the index is for: a churn
// cycle on a table with 12 000 addresses taken costs about what it costs
// on a nearly empty one (the scan it replaced was some hundred times
// slower there). Each side is the best of several interleaved trials, so a
// neighbour stealing the CPU for one of them does not decide the ratio.
func TestChurnCostIndependentOfOccupancy(t *testing.T) {
	const cycles, trials = 2000, 7
	measure := func(occupied int) time.Duration {
		tab, held := churnTable(t, occupied)
		rng := rand.New(rand.NewSource(1))
		start := time.Now()
		churn(t, tab, held, rng, cycles)
		return time.Since(start)
	}
	best := func(cur, d time.Duration) time.Duration {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var empty, full time.Duration
	for i := 0; i < trials; i++ {
		empty = best(empty, measure(16))
		full = best(full, measure(12000))
	}
	t.Logf("%d churn cycles: %v at 16 occupied, %v at 12000", cycles, empty, full)
	if full >= 4*empty {
		t.Fatalf("churn at 12000 occupied took %v, at 16 occupied %v: want less than 4x", full, empty)
	}
}
