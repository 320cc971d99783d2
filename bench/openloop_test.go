package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on (by the request plus a fixed
// overshoot) or when a test moves it.
type fakeClock struct {
	now       time.Time
	overshoot time.Duration
	sleeps    []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d + c.overshoot)
}

// TestOpenLoopSchedule drives the open-loop generator through a stall: a
// request that blocks the generator for 25 ms must not move any due time,
// the requests behind it go out back to back, and each one's lateness is
// what the generator itself was late by.
func TestOpenLoopSchedule(t *testing.T) {
	const interval = 10 * time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start, overshoot: time.Millisecond}
	var dues, issuedAt []time.Duration
	late := openLoop(clk, start, interval,
		func(due time.Time) bool { return due.Before(start.Add(60 * time.Millisecond)) },
		func(i int, due time.Time) {
			dues = append(dues, due.Sub(start))
			issuedAt = append(issuedAt, clk.now.Sub(start))
			if i == 2 {
				clk.now = clk.now.Add(25 * time.Millisecond) // the generator stalls
			}
		})

	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	wantDue := []time.Duration{0, ms(10), ms(20), ms(30), ms(40), ms(50)}
	wantIssued := []time.Duration{0, ms(11), ms(21), ms(46), ms(46), ms(51)}
	wantLate := []time.Duration{0, ms(1), ms(1), ms(16), ms(6), ms(1)}
	if len(dues) != len(wantDue) {
		t.Fatalf("issued %d requests, want %d", len(dues), len(wantDue))
	}
	for i := range wantDue {
		if dues[i] != wantDue[i] {
			t.Errorf("request %d due at +%v, want +%v (a stall must not move due times)", i, dues[i], wantDue[i])
		}
		if issuedAt[i] != wantIssued[i] {
			t.Errorf("request %d issued at +%v, want +%v", i, issuedAt[i], wantIssued[i])
		}
		if issuedAt[i] < dues[i] {
			t.Errorf("request %d issued %v early", i, dues[i]-issuedAt[i])
		}
		if late[i] != wantLate[i] {
			t.Errorf("request %d lateness %v, want %v", i, late[i], wantLate[i])
		}
	}
	// Requests 3 and 4 were overdue when the stall ended: no sleep for them.
	if len(clk.sleeps) != 3 {
		t.Errorf("generator slept %d times (%v), want 3: overdue requests go out back to back", len(clk.sleeps), clk.sleeps)
	}
	// A request that completes instantly once issued still shows the stall
	// in its latency, because latency runs from the due time.
	if got := issuedAt[3] - dues[3]; got != ms(16) {
		t.Errorf("latency floor of request 3 = %v, want 16ms", got)
	}
}

// TestCrashWindow pins which requests count as lost to the failover: in
// flight or due while no owner existed.
func TestCrashWindow(t *testing.T) {
	kill := time.Unix(2000, 0)
	e := &crashEpoch{ownerKill: kill, failover: 400 * time.Millisecond}
	at := func(ms int) time.Time { return kill.Add(time.Duration(ms) * time.Millisecond) }
	cases := []struct {
		name      string
		due, done int
		want      bool
	}{
		{"served before the owner died", -50, -49, false},
		{"in flight when the owner died", -1, 1999, true},
		{"due while no owner existed", 200, 2200, true},
		{"due at the instant of the first success", 400, 401, true},
		{"due after the new owner served", 410, 411, false},
	}
	for _, c := range cases {
		if got := e.inWindow(crashRequest{due: at(c.due), done: at(c.done)}); got != c.want {
			t.Errorf("%s: inWindow = %v, want %v", c.name, got, c.want)
		}
	}
}
