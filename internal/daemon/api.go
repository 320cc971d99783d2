package daemon

// Versioned HTTP control API: every route lives under /v1/ with the typed
// request/response structs below. Handlers run on net/http goroutines and
// only talk to protocol state by posting closures to the event loop.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// StatusResponse is the GET /v1/status response body. ReplicaFactor,
// ReplicaTarget and QDSet are reported by owners only (see /v1/health for
// the full replica-health view).
type StatusResponse struct {
	ID        int    `json:"id"`
	Role      string `json:"role"`
	Joined    bool   `json:"joined"`
	Draining  bool   `json:"draining"`
	Departed  bool   `json:"departed,omitempty"`
	IP        string `json:"ip,omitempty"`
	NetworkID string `json:"network_id,omitempty"`
	// UDP is the daemon's bound transport address — what peers must
	// AddPeer to reach it, and what ctl.AutoJoin gathers to seed a
	// newcomer against a running fleet.
	UDP        string         `json:"udp,omitempty"`
	Space      string         `json:"space"`
	Free       uint32         `json:"free"`
	Occupied   uint32         `json:"occupied"`
	Electorate []int          `json:"electorate"`
	Holders    map[string]int `json:"holders"`
	UptimeMS   int64          `json:"uptime_ms"`

	// ReplicaFactor is the owner's effective replication factor: itself
	// plus every live designated holder with a fresh REPLICA_ACK lease.
	ReplicaFactor int `json:"replica_factor,omitempty"`
	// ReplicaTarget is the effective target the health monitor repairs to.
	ReplicaTarget int `json:"replica_target,omitempty"`
	// QDSet lists the designated replica holders, owner first.
	QDSet []int `json:"qdset,omitempty"`
}

// AllocateRequest is the POST /v1/allocate request body. The body may be
// empty (or `{}`): the address is then allocated on behalf of this daemon.
type AllocateRequest struct {
	// Node, when non-zero, names the cluster member the address is being
	// allocated for; it must be this daemon or a member of the electorate.
	Node int `json:"node,omitempty"`
}

// AllocateResponse is the POST /v1/allocate response body.
type AllocateResponse struct {
	Addr  string `json:"addr"`
	Value uint32 `json:"value"`
	Node  int    `json:"node,omitempty"`
}

// TraceResponse is the GET /v1/trace response body: the events currently
// retained in the daemon's ring sink, oldest first. See DESIGN.md
// Appendix C for the event schema.
type TraceResponse struct {
	Events []obs.Event `json:"events"`
}

// ErrorResponse is the body of every non-2xx API answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// MemberInfo is one electorate member in the GET /v1/members response.
type MemberInfo struct {
	Node int    `json:"node"`
	IP   string `json:"ip,omitempty"`
	Self bool   `json:"self,omitempty"`
	Dead bool   `json:"dead,omitempty"`
	// ReplicaHolder reports designation into the owner's QDSet (owner's
	// view only; members report false for everyone).
	ReplicaHolder bool `json:"replica_holder,omitempty"`
	// LastSeenMS is milliseconds since the member's last message; -1 when
	// it has never been heard from.
	LastSeenMS int64 `json:"last_seen_ms,omitempty"`
	// ReplicaAgeMS is milliseconds since the member's last REPLICA_ACK;
	// -1 when it never acknowledged one.
	ReplicaAgeMS int64 `json:"replica_age_ms,omitempty"`
	// PendingWrites is how many committed writes the owner holds back for
	// the member until its next message to it (owner's view only): how
	// far that replica trails.
	PendingWrites int `json:"pending_writes,omitempty"`
}

// MembersResponse is the GET /v1/members response body.
type MembersResponse struct {
	Owner   int          `json:"owner"`
	Members []MemberInfo `json:"members"`
}

// AddMemberRequest is the POST /v1/members request body: it registers the
// UDP transport address for a node ID so an orchestrated join can reach
// this daemon (the control-plane half of `quorumctl member add`).
type AddMemberRequest struct {
	Node int    `json:"node"`
	Addr string `json:"addr"`
}

// AddMemberResponse is the POST /v1/members response body.
type AddMemberResponse struct {
	Node int    `json:"node"`
	Addr string `json:"addr"`
}

// DrainResponse is the POST /v1/drain response body. Initiated reports
// whether this request performed the transition; a drain request against
// an already-draining daemon answers Draining true, Initiated false.
type DrainResponse struct {
	Draining  bool `json:"draining"`
	Initiated bool `json:"initiated"`
}

// DepartResponse is the POST /v1/depart response body.
type DepartResponse struct {
	Departed bool `json:"departed"`
}

// HealthHolder is one designated replica holder in the /v1/health view.
type HealthHolder struct {
	Node     int   `json:"node"`
	Fresh    bool  `json:"fresh"`
	Dead     bool  `json:"dead,omitempty"`
	AckAgeMS int64 `json:"ack_age_ms,omitempty"` // -1: never acknowledged
}

// HealthResponse is the GET /v1/health response body. Monitoring is false
// on non-owners and when the monitor is disabled; Factor/Target/Holders
// are the owner's live measurement either way.
type HealthResponse struct {
	Monitoring bool           `json:"monitoring"`
	Factor     int            `json:"factor,omitempty"`
	Target     int            `json:"target,omitempty"`
	Under      bool           `json:"under,omitempty"`
	Holders    []HealthHolder `json:"holders,omitempty"`
}

func (d *Daemon) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", d.handleV1Status)
	mux.HandleFunc("/v1/allocate", d.handleV1Allocate)
	mux.HandleFunc("/v1/metrics", d.handleV1Metrics)
	mux.HandleFunc("/v1/trace", d.handleV1Trace)
	mux.HandleFunc("/v1/members", d.handleV1Members)
	mux.HandleFunc("/v1/drain", d.handleV1Drain)
	mux.HandleFunc("/v1/depart", d.handleV1Depart)
	mux.HandleFunc("/v1/health", d.handleV1Health)
	return mux
}

// onLoop runs view on the event loop and returns its result, answering w
// with a 503 (and returning false) when the daemon is wedged or stopped.
//
// A timer that guards a request is stopped when the request ends, here and
// in handleV1Allocate. The module declares go 1.22, so an unstopped timer
// stays in the runtime's timer heap until it fires, and at thousands of
// requests per second that heap grows to tens of thousands of timers that
// every other timer operation pays for (DESIGN.md Appendix B).
func onLoop[T any](d *Daemon, w http.ResponseWriter, view func() T) (T, bool) {
	res := make(chan T, 1)
	d.post(func() { res <- view() })
	wedged := time.NewTimer(2 * time.Second)
	defer wedged.Stop()
	select {
	case v := <-res:
		return v, true
	case <-wedged.C:
		writeError(w, http.StatusServiceUnavailable, "daemon unresponsive")
	case <-d.done:
		writeError(w, http.StatusServiceUnavailable, "daemon stopped")
	}
	var zero T
	return zero, false
}

func (d *Daemon) handleV1Status(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if v, ok := onLoop(d, w, d.statusView); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

func (d *Daemon) handleV1Members(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if v, ok := onLoop(d, w, d.membersView); ok {
			writeJSON(w, http.StatusOK, v)
		}
	case http.MethodPost:
		var req AddMemberRequest
		if !readJSON(w, r, &req, false) {
			return
		}
		if req.Node <= 0 {
			writeError(w, http.StatusBadRequest, "node must be positive, got %d", req.Node)
			return
		}
		if req.Addr == "" {
			writeError(w, http.StatusBadRequest, "addr is required")
			return
		}
		if err := d.AddPeer(radio.NodeID(req.Node), req.Addr); err != nil {
			writeError(w, http.StatusBadRequest, "registering peer %d: %v", req.Node, err)
			return
		}
		d.coll.Inc("daemon.members_added")
		writeJSON(w, http.StatusOK, AddMemberResponse{Node: req.Node, Addr: req.Addr})
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

func (d *Daemon) handleV1Drain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	initiated := d.Drain()
	writeJSON(w, http.StatusOK, DrainResponse{Draining: true, Initiated: initiated})
}

func (d *Daemon) handleV1Depart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), d.cfg.AllocTimeout)
	defer cancel()
	switch err := d.Depart(ctx); {
	case err == nil:
		writeJSON(w, http.StatusOK, DepartResponse{Departed: true})
	case errors.Is(err, ErrOwnerDepart):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrNotJoined):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, "departure timed out awaiting DEPART_ACK")
	default:
		writeError(w, http.StatusServiceUnavailable, "departure failed: %v", err)
	}
}

func (d *Daemon) handleV1Health(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if v, ok := onLoop(d, w, d.healthView); ok {
		writeJSON(w, http.StatusOK, v)
	}
}

// readJSON decodes a strict JSON body into dst, answering 400 and
// returning false on malformed input. An empty body leaves dst untouched
// when optional, and is malformed otherwise.
func readJSON(w http.ResponseWriter, r *http.Request, dst any, optional bool) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		if !optional {
			writeError(w, http.StatusBadRequest, "request body is required")
		}
		return optional
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, "malformed request body: %v", err)
		return false
	}
	return true
}

func (d *Daemon) handleV1Allocate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if d.Draining() {
		writeError(w, http.StatusServiceUnavailable, "daemon is draining")
		return
	}
	var req AllocateRequest
	if !readJSON(w, r, &req, true) {
		return
	}
	if req.Node != 0 {
		known, ok := onLoop(d, w, func() bool {
			id := radio.NodeID(req.Node)
			return id == d.cfg.ID || d.member(id) != nil
		})
		if !ok {
			return
		}
		if !known {
			writeError(w, http.StatusNotFound, "unknown node %d", req.Node)
			return
		}
	}
	start := time.Now()
	res := make(chan allocResult, 1)
	var span uint64 // written and read on the event loop only
	d.post(func() { span = d.allocateLocal(res) })
	timeout := time.NewTimer(d.cfg.AllocTimeout)
	defer timeout.Stop()
	select {
	case out := <-res:
		if !out.ok {
			writeError(w, http.StatusConflict, "allocation failed: not joined, no quorum, or space exhausted")
			return
		}
		d.hists.Observe(obs.HistConfigLatency, 1e-6, time.Since(start).Microseconds())
		writeJSON(w, http.StatusOK, AllocateResponse{Addr: out.addr.String(), Value: uint32(out.addr), Node: req.Node})
	case <-timeout.C:
		d.post(func() { d.takeAllocWaiter(span) }) // a late grant is returned by onGrant
		writeError(w, http.StatusServiceUnavailable, "allocation timed out")
	case <-d.done:
		writeError(w, http.StatusServiceUnavailable, "daemon stopped")
	}
}

func (d *Daemon) handleV1Trace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	events := d.ring.Snapshot()
	if kind := r.URL.Query().Get("kind"); kind != "" {
		want, ok := obs.KindByName(kind)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown event kind %q", kind)
			return
		}
		kept := events[:0]
		for _, e := range events {
			if e.Kind == want {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if spanStr := r.URL.Query().Get("span"); spanStr != "" {
		want, err := obs.ParseSpan(spanStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad span filter: %v", err)
			return
		}
		kept := events[:0]
		for _, e := range events {
			if e.Span == want {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, TraceResponse{Events: events})
}

// handleV1Metrics serves the collector in Prometheus text exposition
// format: every counter as quorumd_<name>, per-category traffic as two
// labelled counters, the latency histograms, and pool occupancy and uptime
// as gauges.
func (d *Daemon) handleV1Metrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := d.coll.Snapshot()
	var b strings.Builder
	counters := snap.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		metric := "quorumd_" + sanitizeMetricName(name)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", metric, metric, counters[name])
	}
	fmt.Fprintf(&b, "# TYPE quorumd_traffic_messages_total counter\n")
	for _, cat := range metrics.Categories() {
		if n := snap.Messages(cat); n != 0 {
			fmt.Fprintf(&b, "quorumd_traffic_messages_total{category=%q} %d\n", cat.String(), n)
		}
	}
	fmt.Fprintf(&b, "# TYPE quorumd_traffic_hops_total counter\n")
	for _, cat := range metrics.Categories() {
		if n := snap.Hops(cat); n != 0 {
			fmt.Fprintf(&b, "quorumd_traffic_hops_total{category=%q} %d\n", cat.String(), n)
		}
	}
	for _, name := range d.hists.Names() {
		s, ok := d.hists.Snapshot(name)
		if !ok {
			continue
		}
		writePromHistogram(&b, "quorumd_"+sanitizeMetricName(name), s)
	}
	// Pool occupancy, read on the event loop (two counter reads, unlike
	// /v1/status's per-address Holders map). Absent until the daemon has a
	// table; a wedged or stopped loop has already answered 503.
	type occupancy struct {
		known          bool
		occupied, free uint32
	}
	occ, ok := onLoop(d, w, func() (o occupancy) {
		if d.table != nil {
			o = occupancy{true, d.table.OccupiedCount(), d.table.FreeCount()}
		}
		return o
	})
	if !ok {
		return
	}
	if occ.known {
		fmt.Fprintf(&b, "# TYPE quorumd_addresses_occupied gauge\nquorumd_addresses_occupied %d\n", occ.occupied)
		fmt.Fprintf(&b, "# TYPE quorumd_addresses_free gauge\nquorumd_addresses_free %d\n", occ.free)
	}
	fmt.Fprintf(&b, "# TYPE quorumd_uptime_seconds gauge\nquorumd_uptime_seconds %g\n",
		d.now().Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}

// writePromHistogram renders one histogram snapshot in Prometheus text
// exposition format: cumulative le-labelled buckets (empty buckets elided;
// the le values stay ascending, which is all the format requires), the
// mandatory +Inf bucket, then _sum and _count. Bucket bounds are the
// histogram's power-of-two raw bounds scaled into exported units.
func writePromHistogram(b *strings.Builder, metric string, s obs.HistogramSnapshot) {
	fmt.Fprintf(b, "# TYPE %s histogram\n", metric)
	cum := uint64(0)
	for i := 0; i < 64; i++ {
		c := s.Buckets[i]
		if c == 0 {
			continue
		}
		cum += c
		fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", metric, strconv.FormatFloat(s.UpperBound(i)*s.Scale, 'g', -1, 64), cum)
	}
	// A scrape can land between a bucket bump and the matching count bump;
	// keep +Inf monotone with the buckets either way.
	total := s.Count
	if cum+s.Buckets[64] > total {
		total = cum + s.Buckets[64]
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", metric, total)
	fmt.Fprintf(b, "%s_sum %g\n", metric, s.ScaledSum())
	fmt.Fprintf(b, "%s_count %d\n", metric, total)
}

// sanitizeMetricName maps a collector counter name onto the Prometheus
// metric-name alphabet [a-zA-Z0-9_].
func sanitizeMetricName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9' && i > 0:
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
