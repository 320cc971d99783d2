package ctl

import (
	"context"
	"sort"
	"sync"
)

// Fleet is a set of daemon clients addressed as one cluster.
type Fleet struct {
	clients []*Client
}

// NewFleet builds one client per address with the shared options.
func NewFleet(addrs []string, opts ...Option) *Fleet {
	f := &Fleet{clients: make([]*Client, 0, len(addrs))}
	for _, a := range addrs {
		f.clients = append(f.clients, New(a, opts...))
	}
	return f
}

// Clients returns the per-daemon clients, in address order.
func (f *Fleet) Clients() []*Client { return f.clients }

// Size returns the number of daemons addressed.
func (f *Fleet) Size() int { return len(f.clients) }

// Result is one daemon's answer to a fanned-out call.
type Result[T any] struct {
	// Addr is the daemon base URL.
	Addr string
	// Value is the answer when Err is nil.
	Value T
	// Err is the per-daemon failure; a dead daemon does not fail the
	// whole fan-out.
	Err error
}

// FanOut calls fn against every daemon of the fleet concurrently and
// returns one Result per daemon, ordered by address so output is stable
// across runs. The context bounds the whole fan-out.
func FanOut[T any](ctx context.Context, f *Fleet, fn func(context.Context, *Client) (T, error)) []Result[T] {
	results := make([]Result[T], len(f.clients))
	var wg sync.WaitGroup
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			v, err := fn(ctx, c)
			results[i] = Result[T]{Addr: c.Addr(), Value: v, Err: err}
		}(i, c)
	}
	wg.Wait()
	sort.SliceStable(results, func(i, j int) bool { return results[i].Addr < results[j].Addr })
	return results
}
