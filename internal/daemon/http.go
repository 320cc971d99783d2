package daemon

// Event-loop snapshots behind the /v1/ views and the shared response
// helpers. The route table and the handlers live in api.go.

import (
	"encoding/json"
	"fmt"
	"net/http"
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
		Electorate: make([]int, 0, len(d.roster)),
		Holders:    make(map[string]int, len(d.holders)),
		UptimeMS:   d.now().Milliseconds(),
	}
	if d.tr != nil {
		v.UDP = d.tr.LocalAddr().String()
	}
	if d.joined {
		v.Role = "member"
		if d.isOwner() {
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
	for _, m := range d.roster {
		v.Electorate = append(v.Electorate, int(m.id))
	}
	for addr, h := range d.holders {
		v.Holders[addr.String()] = int(h)
	}
	if d.departed {
		v.Role = "departed"
		v.Departed = true
	}
	if d.isOwner() && d.joined {
		factor, target := d.monitor.Measure(instant(d.now()), d.healthPeers())
		v.ReplicaFactor = factor
		v.ReplicaTarget = target
		v.QDSet = append(v.QDSet, int(d.cfg.ID))
		for _, m := range d.roster {
			if m.holder {
				v.QDSet = append(v.QDSet, int(m.id))
			}
		}
	}
	return v
}

// membersView snapshots the electorate; event-loop goroutine only.
func (d *Daemon) membersView() MembersResponse {
	now := d.now()
	v := MembersResponse{Owner: int(d.ownerID), Members: make([]MemberInfo, 0, len(d.roster))}
	if !d.joined {
		v.Owner = 0
	}
	for _, m := range d.roster {
		info := MemberInfo{Node: int(m.id), Self: m.id == d.cfg.ID, Dead: m.dead}
		if ip := d.ipOf(m.id); ip != 0 {
			info.IP = ip.String()
		}
		info.LastSeenMS = -1
		if info.Self {
			info.LastSeenMS = 0
		} else if m.lastSeen != 0 {
			info.LastSeenMS = (now - m.lastSeen).Milliseconds()
		}
		if d.isOwner() {
			info.ReplicaHolder = m.holder
			info.PendingWrites = len(m.pending)
			info.ReplicaAgeMS = -1
			if m.acked != 0 {
				info.ReplicaAgeMS = (now - m.acked).Milliseconds()
			}
		}
		v.Members = append(v.Members, info)
	}
	return v
}

// healthView snapshots the replica-health measurement; event-loop
// goroutine only. Non-owners report Monitoring false with no measurement
// (the replica set is the owner's to manage).
func (d *Daemon) healthView() HealthResponse {
	if !d.isOwner() || !d.joined {
		return HealthResponse{}
	}
	now := d.now()
	factor, target := d.monitor.Measure(instant(now), d.healthPeers())
	v := HealthResponse{
		Monitoring: d.cfg.HealthInterval > 0,
		Factor:     factor,
		Target:     target,
		Under:      factor < target,
	}
	for _, m := range d.roster {
		if !m.holder {
			continue
		}
		h := HealthHolder{Node: int(m.id), Dead: m.dead, AckAgeMS: -1}
		if m.acked != 0 {
			h.Fresh = d.monitor.Fresh(instant(now), instant(m.acked))
			h.AckAgeMS = (now - m.acked).Milliseconds()
		}
		v.Holders = append(v.Holders, h)
	}
	return v
}
