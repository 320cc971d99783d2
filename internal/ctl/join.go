package ctl

// Automated admission: AutoJoin drives the whole "quorumctl member add"
// follow-through that used to be a manual runbook — register the newcomer
// on every daemon, gather the fleet's seed directory, boot (or seed) the
// joining daemon, and wait until it reports Joined.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"quorumconf/internal/daemon"
)

// joinPoll is how often AutoJoin re-reads the newcomer's status while
// waiting for its CH_REQ/COM_REQ exchange to land.
const joinPoll = 150 * time.Millisecond

// SpawnFunc boots — or seeds — the joining daemon once the fleet knows
// its transport address. It receives the fleet's seed directory (node ID
// to UDP address for every reachable member) and returns the newcomer's
// HTTP control address, which AutoJoin then polls for the join.
type SpawnFunc func(ctx context.Context, seeds map[int]string) (httpAddr string, err error)

// SeedExisting adapts an already-running daemon to the SpawnFunc shape:
// the operator has started the newcomer (with Seeds naming fleet members
// but no transport addresses yet), and the "spawn" step just pushes the
// fleet's directory into its /v1/members registry so its join retries
// find an answering seed.
func SeedExisting(httpAddr string, opts ...Option) SpawnFunc {
	return func(ctx context.Context, seeds map[int]string) (string, error) {
		c := New(httpAddr, opts...)
		ids := make([]int, 0, len(seeds))
		for id := range seeds {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			if _, err := c.AddMember(ctx, id, seeds[id]); err != nil {
				return "", fmt.Errorf("seeding node %d at %s into %s: %w", id, seeds[id], httpAddr, err)
			}
		}
		return httpAddr, nil
	}
}

// AutoJoin admits node (listening on udpAddr) into the fleet:
//
//  1. register the newcomer's transport address on every daemon, so it is
//     reachable fleet-wide before it speaks;
//  2. collect the seed directory — every reachable member's node ID and
//     UDP address — from the fleet's statuses;
//  3. hand the directory to spawn, which boots or seeds the newcomer and
//     returns its HTTP control address;
//  4. poll the newcomer's status until it reports Joined.
//
// The context bounds the whole flow; the returned status is the
// newcomer's first Joined snapshot. Registration tolerates unreachable
// daemons as long as at least one accepts — the join protocol itself
// only needs one answering seed.
func AutoJoin(ctx context.Context, f *Fleet, node int, udpAddr string, spawn SpawnFunc, opts ...Option) (daemon.StatusResponse, error) {
	reg := FanOut(ctx, f, func(ctx context.Context, c *Client) (daemon.AddMemberResponse, error) {
		return c.AddMember(ctx, node, udpAddr)
	})
	registered := 0
	var regErr error
	for _, r := range reg {
		if r.Err == nil {
			registered++
		} else if regErr == nil {
			regErr = fmt.Errorf("%s: %w", r.Addr, r.Err)
		}
	}
	if registered == 0 {
		return daemon.StatusResponse{}, fmt.Errorf("autojoin: registering node %d failed on every daemon: %w", node, regErr)
	}

	seeds := make(map[int]string)
	for _, r := range FanOut(ctx, f, func(ctx context.Context, c *Client) (daemon.StatusResponse, error) {
		return c.Status(ctx)
	}) {
		if r.Err == nil && r.Value.UDP != "" && r.Value.ID != node {
			seeds[r.Value.ID] = r.Value.UDP
		}
	}
	if len(seeds) == 0 {
		return daemon.StatusResponse{}, fmt.Errorf("autojoin: no reachable daemon reports a UDP address to seed node %d from", node)
	}

	httpAddr, err := spawn(ctx, seeds)
	if err != nil {
		return daemon.StatusResponse{}, fmt.Errorf("autojoin: spawning node %d: %w", node, err)
	}

	nc := New(httpAddr, opts...)
	for {
		v, err := nc.Status(ctx)
		if err == nil && v.Joined {
			if v.ID != node {
				return v, fmt.Errorf("autojoin: daemon at %s is node %d, not the expected %d", httpAddr, v.ID, node)
			}
			return v, nil
		}
		poll := time.NewTimer(joinPoll)
		select {
		case <-ctx.Done():
			poll.Stop()
			if err != nil {
				return daemon.StatusResponse{}, fmt.Errorf("autojoin: node %d never joined (%w; last status error: %v)", node, ctx.Err(), err)
			}
			return v, fmt.Errorf("autojoin: node %d never joined: %w", node, ctx.Err())
		case <-poll.C:
		}
	}
}
