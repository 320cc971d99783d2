package experiment

import (
	"fmt"
	"sync"
	"time"

	"quorumconf/internal/workload"
)

// The grid engine runs every row of the catalog: it fans the independent
// seeded rounds of a row onto a bounded worker pool while keeping figures
// bit-identical to a serial run. The determinism contract has three parts:
//
//  1. Seeds are a pure function of the round index (Config.seed), never of
//     scheduling order.
//  2. Every round writes its metrics into its own index slot; nothing is
//     appended from a worker.
//  3. Reductions (mean, stddev, sums) run after the fan-in, in round order,
//     so floating-point accumulation order is the serial loop's.
//
// Concurrency is admitted only at the leaf — around one simulated round —
// via Config.acquire. Outer fan-out levels (rows under a group, cells under a
// row) spawn cheap goroutines freely, so nested parallelism can never
// deadlock on the semaphore and memory stays bounded by Workers
// concurrently-live simulations.

// parallelDo runs jobs 0..n-1 and waits for all of them. With Workers <= 1
// the jobs run inline in index order (the exact serial code path). On
// failure the error of the lowest-index failing job is returned, matching
// the first error a serial loop would have surfaced.
func (c Config) parallelDo(n int, job func(int) error) error {
	if n <= 0 {
		return nil
	}
	if c.Workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// acquire blocks until a simulation slot is free and returns the release
// func. Only round bodies (the code that actually runs a simulator) may
// hold a slot; holding one across a nested parallelDo would deadlock.
func (c Config) acquire() func() {
	if c.sem == nil {
		return func() {}
	}
	c.sem <- struct{}{}
	return func() { <-c.sem }
}

// seed is the scenario seed of round r, the same at every x and arm.
func (c Config) seed(r int) int64 { return c.BaseSeed + int64(r)*7919 }

// runRound runs one round of arm a at x under the admission semaphore and
// returns the metrics that a.kill, or else measure, read from it. Every
// simulated round of every row funnels through here, so attaching
// Config.Tracer at this seam covers all sweeps.
func (c Config) runRound(sc workload.Scenario, a *arm, x float64, measure measure) ([]float64, error) {
	release := c.acquire()
	defer release()
	if sc.Tracer == nil {
		sc.Tracer = c.Tracer
	}
	res, err := workload.Prepare(sc, a.build(x))
	if err != nil {
		return nil, err
	}
	var vals []float64
	if a.kill != nil {
		res.RT.Sim.ScheduleAt(res.Horizon-time.Second, func() { vals = a.kill(res, x) })
	}
	if err := res.RT.Sim.RunUntil(res.Horizon); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if a.kill == nil {
		vals = measure(res, sc)
	}
	return vals, nil
}

// A grid holds the metrics of every (x, arm, round) cell of one row.
type grid struct {
	row    *row
	vals   [][]float64 // [(xi*len(arms)+ai)*rounds+r] -> metrics
	rounds int
}

// at returns metric m of arm ai at x index xi, one value per round in
// round order.
func (g *grid) at(xi, ai, m int) []float64 {
	k := (xi*len(g.row.arms) + ai) * g.rounds
	out := make([]float64, g.rounds)
	for r := range out {
		out[r] = g.vals[k+r][m]
	}
	return out
}

// series reduces metric m of arm ai at every x to one point.
func (g *grid) series(name string, ai, m int, red reducer) Series {
	s := Series{Name: name, Points: make([]Point, len(g.row.xs))}
	for xi, x := range g.row.xs {
		y, e := red(g.at(xi, ai, m))
		s.Points[xi] = Point{X: x, Y: y, Err: e}
	}
	return s
}

// figure wraps series in the row's header.
func (g *grid) figure(series ...Series) Figure {
	return Figure{ID: g.row.id, Title: g.row.title, XLabel: g.row.xlabel, YLabel: g.row.ylabel, Series: series}
}

// sweep runs every (x, arm, round) cell of rw exactly once and reduces the
// rounds into the row's figures. Cells run x by x (arm by arm for a
// bySeries row), rounds innermost; with Workers <= 1 that is the order the
// rounds run and trace in.
func (c Config) sweep(rw *row) ([]Figure, error) {
	nx, na := len(rw.xs), len(rw.arms)
	g := &grid{row: rw, vals: make([][]float64, nx*na*c.Rounds), rounds: c.Rounds}
	err := c.parallelDo(len(g.vals), func(i int) error {
		cell, r := i/c.Rounds, i%c.Rounds
		xi, ai := cell/na, cell%na
		if rw.bySeries {
			xi, ai = cell%nx, cell/nx
		}
		x, a := rw.xs[xi], &rw.arms[ai]
		sc := rw.scenario(x)
		if a.at != nil {
			a.at(&sc)
		}
		sc.Seed = c.seed(r)
		measure := a.measure
		if measure == nil {
			measure = rw.measureMetric
		}
		vals, err := c.runRound(sc, a, x, measure)
		if err != nil {
			return fmt.Errorf("%s %s x=%g: %w", rw.id, a.name, x, err)
		}
		g.vals[(xi*na+ai)*c.Rounds+r] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rw.plot != nil {
		return rw.plot(g), nil
	}
	series := make([]Series, na)
	for ai, a := range rw.arms {
		series[ai] = g.series(a.name, ai, 0, rw.reduce)
	}
	return []Figure{g.figure(series...)}, nil
}

// A reducer turns one cell's per-round values, in round order, into a
// point's Y and Err.
type reducer func(vals []float64) (y, err float64)

// meanErr is the Welford mean with the sample standard deviation as Err.
func meanErr(vals []float64) (float64, float64) {
	var st sampleStats
	for _, v := range vals {
		st.add(v)
	}
	return st.Mean(), st.Stddev()
}

// mean is the Welford mean without error bars.
func mean(vals []float64) (float64, float64) {
	y, _ := meanErr(vals)
	return y, 0
}

// avg is the plain sum over rounds divided by their number.
func avg(vals []float64) (float64, float64) { return sum(vals) / float64(len(vals)), 0 }

// percent is avg in percent, computed as 100·sum/n.
func percent(vals []float64) (float64, float64) { return 100 * sum(vals) / float64(len(vals)), 0 }

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// floats converts a sweep axis of ints to the float64 x values figures
// plot.
func floats(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
