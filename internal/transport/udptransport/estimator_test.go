package udptransport

import (
	"testing"
	"time"

	"quorumconf/internal/obs"
)

// TestRTTEstimator drives the estimator as a pure function: a sequence of
// first-transmission samples and retransmitted exchanges in, SRTT, RTTVAR
// and the armed RTO out.
func TestRTTEstimator(t *testing.T) {
	const (
		us   = time.Microsecond
		ms   = time.Millisecond
		ceil = 10 * ms // RetryBase
	)
	type step struct {
		rtt    time.Duration // a sample, when positive
		backed time.Duration // else an exchange acknowledged after backing off to this delay
	}
	tests := []struct {
		name         string
		steps        []step
		srtt, rttvar time.Duration
		rto          time.Duration
	}{
		{name: "no sample arms RetryBase", rto: ceil},
		{name: "first sample seeds SRTT and half of it as RTTVAR",
			steps: []step{{rtt: 1 * ms}}, srtt: 1 * ms, rttvar: 500 * us, rto: 3 * ms},
		{name: "steady samples decay RTTVAR by a quarter each",
			steps: []step{{rtt: 1 * ms}, {rtt: 1 * ms}, {rtt: 1 * ms}},
			srtt:  1 * ms, rttvar: 281250 * time.Nanosecond, rto: 2125 * us},
		{name: "a slower sample moves SRTT by an eighth and RTTVAR toward the deviation",
			steps: []step{{rtt: 1 * ms}, {rtt: 1800 * us}},
			srtt:  1100 * us, rttvar: 575 * us, rto: 3400 * us},
		{name: "loopback estimate clamps up to the floor",
			steps: []step{{rtt: 20 * us}, {rtt: 20 * us}}, srtt: 20 * us, rttvar: 7500 * time.Nanosecond, rto: rtoFloor},
		{name: "slow path clamps down to RetryBase",
			steps: []step{{rtt: 50 * ms}}, srtt: 50 * ms, rttvar: 25 * ms, rto: ceil},
		{name: "a retransmitted exchange contributes no sample but keeps its back-off armed",
			steps: []step{{rtt: 1 * ms}, {backed: 6 * ms}}, srtt: 1 * ms, rttvar: 500 * us, rto: 6 * ms},
		{name: "retained back-off never exceeds RetryBase",
			steps: []step{{rtt: 1 * ms}, {backed: 48 * ms}}, srtt: 1 * ms, rttvar: 500 * us, rto: ceil},
		{name: "the next sample releases the retained back-off",
			steps: []step{{rtt: 1 * ms}, {backed: 6 * ms}, {rtt: 1 * ms}},
			srtt:  1 * ms, rttvar: 375 * us, rto: 2500 * us},
		{name: "a retransmission before any sample leaves RetryBase armed",
			steps: []step{{backed: 20 * ms}}, rto: ceil},
	}
	for _, tc := range tests {
		var e rttEstimator
		for _, s := range tc.steps {
			if s.rtt > 0 {
				e.sample(s.rtt)
			} else {
				e.backed = s.backed
			}
		}
		if e.srtt != tc.srtt || e.rttvar != tc.rttvar {
			t.Errorf("%s: srtt/rttvar = %v/%v, want %v/%v", tc.name, e.srtt, e.rttvar, tc.srtt, tc.rttvar)
		}
		if got := e.rto(ceil); got != tc.rto {
			t.Errorf("%s: rto = %v, want %v", tc.name, got, tc.rto)
		}
	}
	// A RetryBase below the floor stays the ceiling: the floor never raises
	// the RTO past what the caller configured.
	var e rttEstimator
	e.sample(20 * us)
	if got := e.rto(100 * us); got != 100*us {
		t.Errorf("rto under a 100µs RetryBase = %v, want 100µs", got)
	}
}

// TestRTTHistogramCountsFirstTransmissionAcks: the exported RTT histogram
// holds exactly the samples the RTO derives from — one per exchange
// acknowledged on its first transmission (Karn's rule), none for an
// exchange that was retransmitted.
func TestRTTHistogramCountsFirstTransmissionAcks(t *testing.T) {
	const n = 1000
	hists := obs.NewHistograms()
	_, retransmitted := lossyExchanges(t, n, hists)
	if retransmitted == 0 {
		t.Fatal("no exchange was retransmitted; the test did not exercise Karn's rule")
	}
	snap, ok := hists.Snapshot(obs.HistTransportRTT)
	if !ok {
		t.Fatal("transport RTT histogram not recorded")
	}
	if want := uint64(n - retransmitted); snap.Count != want {
		t.Errorf("RTT samples = %d, want %d (%d of %d exchanges were retransmitted)", snap.Count, want, retransmitted, n)
	}
}
