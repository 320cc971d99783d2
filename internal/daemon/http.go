package daemon

// Event-loop snapshots behind the /v1/ views and the shared response
// helpers. The route table and the handlers live in api.go.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"quorumconf/internal/health"
	"quorumconf/internal/radio"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusView snapshots protocol state; event-loop goroutine only.
func (d *Daemon) statusView() StatusResponse {
	v := StatusResponse{
		ID:         int(d.cfg.ID),
		Role:       "joining",
		Joined:     d.joined,
		Draining:   d.Draining(),
		Space:      d.cfg.Space.String(),
		Electorate: make([]int, 0, len(d.electorate)),
		Holders:    make(map[string]int, len(d.holders)),
		UptimeMS:   time.Since(d.started).Milliseconds(),
	}
	if d.tr != nil {
		v.UDP = d.tr.LocalAddr().String()
	}
	if d.joined {
		v.Role = "member"
		if d.owner {
			v.Role = "owner"
		}
	}
	if d.hasIP {
		v.IP = d.selfIP.String()
		v.NetworkID = d.networkID.String()
	}
	if d.table != nil {
		v.Free = d.table.FreeCount()
		v.Occupied = d.table.OccupiedCount()
	}
	for _, id := range d.electorate {
		v.Electorate = append(v.Electorate, int(id))
	}
	for addr, h := range d.holders {
		v.Holders[addr.String()] = int(h)
	}
	if d.departed {
		v.Role = "departed"
		v.Departed = true
	}
	if d.owner && d.joined {
		factor, target := health.Measure(d.healthConfig(), time.Now(), d.healthPeers())
		v.ReplicaFactor = factor
		v.ReplicaTarget = target
		v.QDSet = append(v.QDSet, int(d.cfg.ID))
		holders := make([]int, 0, len(d.replicaSet))
		for id := range d.replicaSet {
			holders = append(holders, int(id))
		}
		sort.Ints(holders)
		v.QDSet = append(v.QDSet, holders...)
	}
	return v
}

// healthConfig is the monitor parameterization actually in force.
func (d *Daemon) healthConfig() health.Config {
	return health.Config{Target: d.cfg.ReplicationTarget, TTL: d.cfg.ReplicaTTL}
}

// membersView snapshots the electorate; event-loop goroutine only.
func (d *Daemon) membersView() MembersResponse {
	now := time.Now()
	v := MembersResponse{Owner: int(d.ownerID), Members: make([]MemberInfo, 0, len(d.electorate))}
	if !d.joined {
		v.Owner = 0
	}
	for _, id := range d.electorate {
		m := MemberInfo{Node: int(id), Self: id == d.cfg.ID, Dead: d.dead[id]}
		if ip, ok := d.memberIPs[id]; ok {
			m.IP = ip.String()
		}
		m.LastSeenMS = -1
		if id == d.cfg.ID {
			m.LastSeenMS = 0
		} else if seen, ok := d.lastSeen[id]; ok {
			m.LastSeenMS = now.Sub(seen).Milliseconds()
		}
		if d.owner {
			m.ReplicaHolder = d.replicaSet[id]
			m.ReplicaAgeMS = -1
			if acked, ok := d.replicaAcked[id]; ok {
				m.ReplicaAgeMS = now.Sub(acked).Milliseconds()
			}
		}
		v.Members = append(v.Members, m)
	}
	return v
}

// healthView snapshots the replica-health measurement; event-loop
// goroutine only. Non-owners report Monitoring false with no measurement
// (the replica set is the owner's to manage).
func (d *Daemon) healthView() HealthResponse {
	if !d.owner || !d.joined {
		return HealthResponse{}
	}
	now := time.Now()
	cfg := d.healthConfig()
	factor, target := health.Measure(cfg, now, d.healthPeers())
	v := HealthResponse{
		Monitoring: d.cfg.HealthInterval > 0,
		Factor:     factor,
		Target:     target,
		Under:      factor < target,
	}
	ids := make([]radio.NodeID, 0, len(d.replicaSet))
	for id := range d.replicaSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		h := HealthHolder{Node: int(id), Dead: d.dead[id], AckAgeMS: -1}
		if acked, ok := d.replicaAcked[id]; ok {
			h.Fresh = cfg.Fresh(now, acked)
			h.AckAgeMS = now.Sub(acked).Milliseconds()
		}
		v.Holders = append(v.Holders, h)
	}
	return v
}
