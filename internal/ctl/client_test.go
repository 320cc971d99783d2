package ctl

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"quorumconf/internal/daemon"
)

// fakeDaemon serves a canned /v1 API for client tests.
func fakeDaemon(t *testing.T, mux *http.ServeMux) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func jsonHandler(code int, v any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(v)
	}
}

func TestClientTypedCalls(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", jsonHandler(200, daemon.StatusResponse{ID: 3, Role: "member", Joined: true, IP: "10.0.0.3"}))
	mux.HandleFunc("/v1/members", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			jsonHandler(200, daemon.MembersResponse{Owner: 1, Members: []daemon.MemberInfo{{Node: 1}}})(w, r)
		case http.MethodPost:
			var req daemon.AddMemberRequest
			_ = json.NewDecoder(r.Body).Decode(&req)
			jsonHandler(200, daemon.AddMemberResponse{Node: req.Node, Addr: req.Addr})(w, r)
		}
	})
	mux.HandleFunc("/v1/health", jsonHandler(200, daemon.HealthResponse{Monitoring: true, Factor: 2, Target: 3, Under: true}))
	mux.HandleFunc("/v1/drain", jsonHandler(200, daemon.DrainResponse{Draining: true, Initiated: true}))
	mux.HandleFunc("/v1/depart", jsonHandler(200, daemon.DepartResponse{Departed: true}))
	srv := fakeDaemon(t, mux)

	c := New(srv.URL)
	ctx := context.Background()

	if v, err := c.Status(ctx); err != nil || v.ID != 3 || v.Role != "member" {
		t.Errorf("Status = %+v, %v", v, err)
	}
	if v, err := c.Members(ctx); err != nil || v.Owner != 1 || len(v.Members) != 1 {
		t.Errorf("Members = %+v, %v", v, err)
	}
	if v, err := c.AddMember(ctx, 7, "127.0.0.1:19"); err != nil || v.Node != 7 || v.Addr != "127.0.0.1:19" {
		t.Errorf("AddMember = %+v, %v", v, err)
	}
	if v, err := c.Health(ctx); err != nil || v.Factor != 2 || !v.Under {
		t.Errorf("Health = %+v, %v", v, err)
	}
	if v, err := c.Drain(ctx); err != nil || !v.Initiated {
		t.Errorf("Drain = %+v, %v", v, err)
	}
	if v, err := c.Depart(ctx); err != nil || !v.Departed {
		t.Errorf("Depart = %+v, %v", v, err)
	}
}

func TestClientAPIError(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trace", jsonHandler(400, daemon.ErrorResponse{Error: `unknown event kind "bogus"`}))
	mux.HandleFunc("/v1/depart", jsonHandler(409, daemon.ErrorResponse{Error: "the space owner cannot depart"}))
	srv := fakeDaemon(t, mux)
	c := New(srv.URL)

	_, err := c.Trace(context.Background(), "bogus")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Trace error = %v, want *APIError", err)
	}
	if apiErr.Status != 400 || apiErr.Message != `unknown event kind "bogus"` {
		t.Errorf("APIError = %+v", apiErr)
	}
	if _, err := c.Depart(context.Background()); !errors.As(err, &apiErr) || apiErr.Status != 409 {
		t.Errorf("Depart error = %v, want 409 APIError", err)
	}
}

// TestClientRetries: idempotent calls survive transient 5xx answers;
// 4xx answers and non-idempotent allocations do not retry.
func TestClientRetries(t *testing.T) {
	var statusCalls, allocCalls, badCalls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		if statusCalls.Add(1) < 3 {
			jsonHandler(503, daemon.ErrorResponse{Error: "daemon unresponsive"})(w, r)
			return
		}
		jsonHandler(200, daemon.StatusResponse{ID: 1})(w, r)
	})
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		allocCalls.Add(1)
		jsonHandler(503, daemon.ErrorResponse{Error: "allocation timed out"})(w, r)
	})
	mux.HandleFunc("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		badCalls.Add(1)
		jsonHandler(400, daemon.ErrorResponse{Error: "unknown event kind"})(w, r)
	})
	srv := fakeDaemon(t, mux)
	c := New(srv.URL, WithRetries(2))
	c.backoff = time.Millisecond

	if v, err := c.Status(context.Background()); err != nil || v.ID != 1 {
		t.Errorf("Status after retries = %+v, %v", v, err)
	}
	if got := statusCalls.Load(); got != 3 {
		t.Errorf("status called %d times, want 3 (two 503s then success)", got)
	}

	if _, err := c.Allocate(context.Background(), 0); err == nil {
		t.Error("Allocate over a 503 succeeded, want error")
	}
	if got := allocCalls.Load(); got != 1 {
		t.Errorf("allocate called %d times, want 1 (never retried)", got)
	}

	if _, err := c.Trace(context.Background(), "x"); err == nil {
		t.Error("Trace over a 400 succeeded, want error")
	}
	if got := badCalls.Load(); got != 1 {
		t.Errorf("trace called %d times, want 1 (4xx never retried)", got)
	}
}

func TestClientTimeout(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
		case <-r.Context().Done():
		}
	})
	srv := fakeDaemon(t, mux)
	c := New(srv.URL, WithTimeout(50*time.Millisecond), WithRetries(0))

	start := time.Now()
	if _, err := c.Status(context.Background()); err == nil {
		t.Fatal("Status against a hung daemon succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v, want ~50ms", elapsed)
	}
}

func TestFanOut(t *testing.T) {
	mkSrv := func(id int, code int) *httptest.Server {
		mux := http.NewServeMux()
		if code == 200 {
			mux.HandleFunc("/v1/status", jsonHandler(200, daemon.StatusResponse{ID: id}))
		} else {
			mux.HandleFunc("/v1/status", jsonHandler(code, daemon.ErrorResponse{Error: "boom"}))
		}
		return fakeDaemon(t, mux)
	}
	ok1, ok2, bad := mkSrv(1, 200), mkSrv(2, 200), mkSrv(3, 503)

	f := NewFleet([]string{ok1.URL, ok2.URL, bad.URL}, WithRetries(0))
	if f.Size() != 3 {
		t.Fatalf("fleet size = %d", f.Size())
	}
	results := FanOut(context.Background(), f, func(ctx context.Context, c *Client) (daemon.StatusResponse, error) {
		return c.Status(ctx)
	})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	oks, fails := 0, 0
	ids := map[int]bool{}
	for _, r := range results {
		if r.Err != nil {
			fails++
			continue
		}
		oks++
		ids[r.Value.ID] = true
	}
	if oks != 2 || fails != 1 || !ids[1] || !ids[2] {
		t.Errorf("fan-out results = %+v", results)
	}
	// Ordered by address for stable CLI output.
	for i := 1; i < len(results); i++ {
		if results[i-1].Addr > results[i].Addr {
			t.Errorf("results not address-ordered: %q after %q", results[i].Addr, results[i-1].Addr)
		}
	}
}
