package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/daemon"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/transport/inproc"
)

// clusterSpec describes one in-process cluster: every site shares one
// zero-latency inproc fabric and simulates Work by sleeping.
type clusterSpec struct {
	sites    int
	workUnit time.Duration
	seed     int64
	// traceCap > 0 turns on each site's tracer ring (events per site)
	// together with its metrics registry.
	traceCap int
}

type cluster struct {
	fab   *inproc.Fabric
	sites []*daemon.Daemon
	// joins holds the duration of every Join call, in site order.
	joins []time.Duration
}

const rosterTimeout = 10 * time.Second

// newCluster boots spec.sites daemons — site 0 bootstraps, the rest join
// through it — and returns once every site's roster lists every site.
func newCluster(spec clusterSpec) (*cluster, error) {
	c := &cluster{fab: inproc.New(inproc.LinkProfile{})}
	for i := 0; i < spec.sites; i++ {
		d := daemon.New(daemon.Config{
			PhysAddr:      fmt.Sprintf("perf-site-%d", i),
			Network:       c.fab,
			WorkModel:     exec.WorkSimulated,
			WorkUnit:      spec.workUnit,
			Seed:          spec.seed*64 + int64(i) + 1,
			TraceCapacity: spec.traceCap,
			Metrics:       spec.traceCap > 0,
		})
		var err error
		if i == 0 {
			err = d.Bootstrap()
		} else {
			t := time.Now()
			err = d.Join("perf-site-0")
			c.joins = append(c.joins, time.Since(t))
		}
		if err != nil {
			c.close()
			return nil, fmt.Errorf("site %d: %w", i, err)
		}
		c.sites = append(c.sites, d)
	}
	if err := c.awaitRoster(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// awaitRoster polls until every site knows every other site.
func (c *cluster) awaitRoster() error {
	deadline := time.Now().Add(rosterTimeout)
	tick := time.NewTicker(100 * time.Microsecond)
	defer tick.Stop()
	for {
		converged := true
		for _, d := range c.sites {
			if len(d.CM.SiteIDs()) < len(c.sites) {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("rosters did not converge on %d sites within %v", len(c.sites), rosterTimeout)
		}
		<-tick.C
	}
}

// close tears the cluster down. Every site stops scheduling and load
// reporting, and its workers exit, before any site's network closes:
// killing one site while its peers still dial it can panic inside the
// inproc fabric (a Dial racing the listener's Close sends on the closed
// backlog channel).
func (c *cluster) close() {
	for _, d := range c.sites {
		d.Site.Close()
		d.Sched.Close()
	}
	for _, d := range c.sites {
		d.Exec.Wait()
	}
	for _, d := range c.sites {
		d.Kill()
	}
	c.fab.Close()
}

// executed sums the microframes every site has run so far.
func (c *cluster) executed() uint64 {
	var n uint64
	for _, d := range c.sites {
		n += d.Exec.Executed()
	}
	return n
}

// busy sums every site's cumulative execution time.
func (c *cluster) busy() time.Duration {
	var n int64
	for _, d := range c.sites {
		n += d.Exec.BusyNanos()
	}
	return time.Duration(n)
}

// registryTotals sums every site's metrics registry by name.
func (c *cluster) registryTotals() map[string]int64 {
	totals := map[string]int64{}
	for _, d := range c.sites {
		metrics.Merge(totals, d.Metrics.Snapshot())
	}
	return totals
}

func (c *cluster) queueLens() []func() int {
	fs := make([]func() int, len(c.sites))
	for i, d := range c.sites {
		fs[i] = d.Sched.QueueLen
	}
	return fs
}

// setupLog records timed cluster builds. Build time is noisy at
// millisecond scale and the host's speed drifts over a run, so a workload
// times many builds spread over its whole run rather than one batch at
// its start, and reports the median.
type setupLog struct {
	times []float64
	// joins holds the duration of every Join call of every build.
	joins []time.Duration
}

// build builds a cluster of spec from a freshly collected heap, so that
// earlier garbage is not charged to it, runs prepare on it when non-nil
// and records the time both took.
func (l *setupLog) build(spec clusterSpec, prepare func(*cluster)) (*cluster, error) {
	runtime.GC()
	start := time.Now()
	c, err := newCluster(spec)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(c)
	}
	l.times = append(l.times, time.Since(start).Seconds())
	l.joins = append(l.joins, c.joins...)
	return c, nil
}

// buildReps builds reps clusters one after another, closing all but the
// last, which it returns.
func (l *setupLog) buildReps(spec clusterSpec, reps int, prepare func(*cluster)) (*cluster, error) {
	var c *cluster
	for r := 0; r < reps; r++ {
		if c != nil {
			c.close()
		}
		var err error
		if c, err = l.build(spec, prepare); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (l *setupLog) median() float64 { return median(l.times) }
