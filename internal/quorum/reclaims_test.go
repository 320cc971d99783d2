package quorum

import (
	"slices"
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

func TestReclaims(t *testing.T) {
	const target, other = radio.NodeID(7), radio.NodeID(8)
	held := []addrspace.Addr{9, 3, 5, 1}
	cases := []struct {
		name string
		run  func(t *testing.T, r Reclaims)
	}{
		{"second open refused", func(t *testing.T, r Reclaims) {
			first := r.Open(target, 1, 10)
			if first == nil || first.Span != 1 || first.Opened != 10 {
				t.Fatalf("Open = %+v, want span 1 opened at 10", first)
			}
			if again := r.Open(target, 2, 11); again != nil {
				t.Errorf("second Open = %+v, want nil while the first is open", again)
			}
			if !r.Running(target) || r.Running(other) {
				t.Errorf("Running(target)=%v Running(other)=%v, want true/false", r.Running(target), r.Running(other))
			}
			if r.Open(other, 3, 11) == nil {
				t.Error("a run for another target was refused")
			}
		}},
		{"defend without a run", func(t *testing.T, r Reclaims) {
			if run, ok := r.Defend(target, 3); ok || run != nil {
				t.Errorf("Defend with no run = %v, %v; want nil, false", run, ok)
			}
			r.Open(other, 1, 0)
			if _, ok := r.Defend(target, 3); ok {
				t.Error("Defend landed in another target's run")
			}
		}},
		{"stale close", func(t *testing.T, r Reclaims) {
			stale := r.Open(target, 1, 0)
			if !r.Close(target, stale) {
				t.Fatal("Close of the open run refused")
			}
			if r.Close(target, stale) {
				t.Error("Close of an already closed run accepted")
			}
			fresh := r.Open(target, 2, 5)
			if r.Close(target, stale) || !r.Running(target) {
				t.Error("a stale Close ended the run opened after it")
			}
			if r.Close(other, fresh) || r.Close(target, nil) {
				t.Error("Close accepted a run that is not target's")
			}
		}},
		{"undefended keeps order", func(t *testing.T, r Reclaims) {
			r.Open(target, 1, 0)
			run, ok := r.Defend(target, 3)
			if !ok {
				t.Fatal("Defend refused with a run open")
			}
			r.Defend(target, 42) // not held: nothing to skip
			if got, want := run.Undefended(held), []addrspace.Addr{9, 5, 1}; !slices.Equal(got, want) {
				t.Errorf("Undefended = %v, want %v", got, want)
			}
		}},
		{"reopen after close", func(t *testing.T, r Reclaims) {
			first := r.Open(target, 1, 0)
			r.Defend(target, 9)
			r.Close(target, first)
			second := r.Open(target, 2, 20)
			if second == nil || second == first {
				t.Fatalf("reopen = %p (first %p), want a new run", second, first)
			}
			if got := second.Undefended(held); !slices.Equal(got, held) {
				t.Errorf("reopened run carries old defenses: Undefended = %v, want %v", got, held)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, Reclaims{}) })
	}

	var none Reclaims
	if none.Running(target) || none.Close(target, &Reclaim{}) {
		t.Error("nil Reclaims reports an open run")
	}
	if _, ok := none.Defend(target, 1); ok {
		t.Error("nil Reclaims accepted a defense")
	}
}
