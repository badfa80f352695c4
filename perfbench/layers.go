package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/types"
)

// layerMetric is one per-layer metric: its unit and the end-to-end metric
// (and workload) a change to this layer should move.
type layerMetric struct {
	name, unit, better, moves string
}

// busKinds are the message kinds whose per-unit send counts are reported:
// every kind that is non-zero on at least one workload.
var busKinds = []string{
	"apply-param", "frame-push", "help-request", "help-reply", "load-report",
	"code-request", "code-reply", "program-register", "program-terminated", "program-query", "program-info",
	"mem-read-replica", "mem-replica-data", "mem-write", "mem-write-ack",
	"mem-invalidate-batch", "barrier", "mem-migrate", "mem-heat-transfer", "home-update",
}

// layerCatalogue lists every per-layer metric in output order. A layer
// idle on a workload reports 0 there.
func layerCatalogue() []layerMetric {
	ms := []layerMetric{
		{"sched.dispatch_wait_us_p50", "us", "lower", "work_per_s (frames_per_s) on fib-local"},
		{"sched.dispatch_wait_us_p99", "us", "lower", "work_per_s (frames_per_s) on fib-local"},
		{"sched.queue_len_max", "count", "lower", "work_per_s (frames_per_s) on fib-local"},
		{"sched.help_asked_per_frame", "ratio", "lower", "speedup_8, cpu_us_per_work on primes-paper"},
		{"sched.help_useful_ratio", "ratio", "higher", "speedup_8, cpu_us_per_work on primes-paper"},
		{"sched.resolve_us", "us", "lower", "work_per_s on fib-local; speedup_8 on primes-paper"},
		{"sched.ready_wait_us", "us", "lower", "work_per_s on fib-local; speedup_8 on primes-paper"},
		{"exec.run_us_mean", "us", "lower", "cpu_us_per_work on fib-local"},
		{"exec.busy_frac", "ratio", "higher", "speedup_4/speedup_8 on primes-paper"},
		{"exec.stage_run_us", "us", "lower", "work_per_s on fib-local; speedup_8 on primes-paper"},
		{"memory.read_home_us_p50", "us", "lower", "op_p50_us (read_p50_us) on mem-mix"},
		{"memory.read_home_us_p99", "us", "lower", "read_p99_us on mem-mix"},
		{"memory.read_peer_us_p50", "us", "lower", "op_p50_us (read_p50_us) on mem-mix"},
		{"memory.read_peer_us_p99", "us", "lower", "read_p99_us on mem-mix"},
		{"memory.write_home_us_p50", "us", "lower", "write_p50_us, work_per_s on mem-mix"},
		{"memory.write_home_us_p99", "us", "lower", "write_p99_us on mem-mix"},
		{"memory.write_peer_us_p50", "us", "lower", "write_p50_us, work_per_s on mem-mix"},
		{"memory.write_peer_us_p99", "us", "lower", "write_p99_us on mem-mix"},
		{"memory.replica_hit_ratio", "ratio", "higher", "op_p50_us, work_per_s on mem-mix"},
		{"memory.remote_reads_per_op", "ratio", "lower", "op_p50_us, work_per_s on mem-mix"},
		{"memory.invalidations_per_write", "ratio", "lower", "write_p99_us on mem-mix"},
		{"memory.home_migrations", "count", "lower", "write_p99_us on mem-mix"},
		{"memory.shard_contention", "count", "lower", "work_per_s on mem-mix"},
		{"memory.params_per_frame", "ratio", "lower", "sanity count on fib-local (2 params per node frame)"},
		{"memory.fire_wait_us", "us", "lower", "work_per_s on fib-local; speedup_8 on primes-paper"},
		{"msgbus.msgs_per_frame", "ratio", "lower", "cpu_us_per_work, speedup_8 on primes-paper"},
		{"msgbus.bytes_per_frame", "B", "lower", "cpu_us_per_work, speedup_8 on primes-paper"},
		{"msgbus.msgs_per_op", "ratio", "lower", "work_per_s on mem-mix"},
		{"msgbus.transit_us", "us", "lower", "speedup_8 on primes-paper"},
		{"msgbus.dropped", "count", "lower", "failed (counted as failures)"},
		{"netmgr.send_errors", "count", "lower", "failed (counted as failures)"},
	}
	for _, k := range busKinds {
		ms = append(ms, layerMetric{"msgbus.out." + k, "msgs/unit", "lower",
			"cpu_us_per_work on mem-mix; cpu_us_per_work, speedup_8 on primes-paper"})
	}
	ms = append(ms,
		layerMetric{"cluster.join_ms", "ms", "lower", "setup_s on every workload"},
		layerMetric{"heap.retained_kb_per_op", "KB", "lower", "memory of a long-lived site: live heap a cluster keeps per op (untraced half)"},
		layerMetric{"trace.ring_kept_frac", "ratio", "higher", "1 = the tracer rings held every event of the traced half"},
	)
	for _, m := range e2eUnits {
		better := "lower"
		if m.name == mWork {
			better = "higher"
		}
		ms = append(ms, layerMetric{"overhead." + m.name, m.unit, better,
			"tracing overhead: traced minus untraced " + m.name})
	}
	return ms
}

// segment observes one cluster over a measured stretch: counters are read
// at begin and again at end, and only the difference counts.
type segment struct {
	c      *cluster
	traced bool
	exec0  uint64
	busy0  time.Duration
	help0  [2]uint64
	mem0   memCounts
	reg0   map[string]int64
	queue  *maxPoller
}

// memCounts are the attraction-memory counters the layer metrics use.
type memCounts struct {
	params, remoteReads, replicaHits, replicaInvals, homeMigrations, contention uint64
}

func (c *cluster) memCounts() memCounts {
	var m memCounts
	for _, d := range c.sites {
		s := d.Mem.Stats()
		m.params += s.ParamsApplied
		m.remoteReads += s.RemoteReads
		m.replicaHits += s.ReplicaHits
		m.replicaInvals += s.ReplicaInvals
		m.homeMigrations += s.HomeMigrations
		m.contention += s.ShardContention
	}
	return m
}

func (c *cluster) helpCounts() [2]uint64 {
	var h [2]uint64
	for _, d := range c.sites {
		s := d.Sched.Stats()
		h[0] += s.HelpAsked
		h[1] += s.HelpDenied
	}
	return h
}

func beginSegment(c *cluster, traced bool) *segment {
	s := &segment{c: c, traced: traced, exec0: c.executed(), busy0: c.busy(),
		help0: c.helpCounts(), mem0: c.memCounts()}
	if traced {
		s.reg0 = c.registryTotals()
		s.queue = startQueueSampler(c.queueLens())
	}
	return s
}

// layerAcc accumulates segments and the benchmark's own spans into the
// per-layer metrics of one traced pass.
type layerAcc struct {
	sites    int
	makespan time.Duration // summed op time of the observed segments
	frames   float64
	busy     time.Duration
	asked    float64
	denied   float64
	mem      memCounts
	reg      map[string]int64
	stages   map[string][]time.Duration
	events   uint64 // recorded by the tracers
	kept     uint64 // still in the rings at the end
	queueMax float64
	joins    []time.Duration
}

func newLayerAcc() *layerAcc {
	return &layerAcc{reg: map[string]int64{}, stages: map[string][]time.Duration{}}
}

// end closes the segment and adds its deltas to acc; an untraced
// segment adds nothing.
func (s *segment) end(acc *layerAcc, makespan time.Duration) {
	if !s.traced {
		return
	}
	c := s.c
	acc.queueMax = math.Max(acc.queueMax, s.queue.finish())
	acc.sites = len(c.sites)
	acc.makespan += makespan
	acc.frames += float64(c.executed() - s.exec0)
	acc.busy += c.busy() - s.busy0
	h := c.helpCounts()
	acc.asked += float64(h[0] - s.help0[0])
	acc.denied += float64(h[1] - s.help0[1])
	m := c.memCounts()
	acc.mem.params += m.params - s.mem0.params
	acc.mem.remoteReads += m.remoteReads - s.mem0.remoteReads
	acc.mem.replicaHits += m.replicaHits - s.mem0.replicaHits
	acc.mem.replicaInvals += m.replicaInvals - s.mem0.replicaInvals
	acc.mem.homeMigrations += m.homeMigrations - s.mem0.homeMigrations
	acc.mem.contention += m.contention - s.mem0.contention
	for k, v := range c.registryTotals() {
		acc.reg[k] += v - s.reg0[k]
	}
	var events []trace.Event
	for _, d := range c.sites {
		acc.events += d.Trace.Total()
		kept := d.Trace.Events()
		acc.kept += uint64(len(kept))
		events = append(events, kept...)
	}
	for k, v := range frameStages(events) {
		acc.stages[k] = append(acc.stages[k], v...)
	}
}

// frameStages pairs each frame's tracer events into the time it spent
// between stations of its career, merged across sites.
func frameStages(events []trace.Event) map[string][]time.Duration {
	type career struct {
		created, fired, enqueued, resolved, dispatched, executed, granted, received time.Time
	}
	careers := map[types.FrameID]*career{}
	sort.Slice(events, func(i, j int) bool { return events[i].At.Before(events[j].At) })
	for _, e := range events {
		cr := careers[e.Frame]
		if cr == nil {
			cr = &career{}
			careers[e.Frame] = cr
		}
		switch e.Kind {
		case trace.EvFrameCreated:
			cr.created = e.At
		case trace.EvFrameFired:
			cr.fired = e.At
		case trace.EvEnqueued:
			cr.enqueued = e.At // the last enqueue: where the frame ran
		case trace.EvCodeResolved:
			cr.resolved = e.At
		case trace.EvDispatched:
			cr.dispatched = e.At
		case trace.EvExecuted:
			cr.executed = e.At
		case trace.EvGranted:
			if cr.granted.IsZero() {
				cr.granted = e.At
			}
		case trace.EvReceived:
			if !cr.granted.IsZero() && cr.received.IsZero() {
				cr.received = e.At
			}
		}
	}
	out := map[string][]time.Duration{}
	add := func(name string, from, to time.Time) {
		if !from.IsZero() && !to.IsZero() && !to.Before(from) {
			out[name] = append(out[name], to.Sub(from))
		}
	}
	for _, cr := range careers {
		add("memory.fire_wait_us", cr.created, cr.fired)
		add("sched.resolve_us", cr.enqueued, cr.resolved)
		add("sched.ready_wait_us", cr.resolved, cr.dispatched)
		add("exec.stage_run_us", cr.dispatched, cr.executed)
		add("msgbus.transit_us", cr.granted, cr.received)
	}
	return out
}

// histPercentileUS reads a registry histogram flattened into
// <name>.le.<bound> buckets and returns its q-quantile in µs, interpolated
// linearly inside the bucket that holds it.
func histPercentileUS(reg map[string]int64, name string, q float64) float64 {
	type bucket struct {
		upper time.Duration
		n     int64
	}
	var bs []bucket
	var overflow int64
	prefix := name + ".le."
	for k, v := range reg {
		if strings.HasPrefix(k, prefix) {
			if d, err := time.ParseDuration(strings.TrimPrefix(k, prefix)); err == nil {
				bs = append(bs, bucket{d, v})
			}
		} else if strings.HasPrefix(k, name+".gt.") {
			overflow += v
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].upper < bs[j].upper })
	var total int64
	for _, b := range bs {
		total += b.n
	}
	total += overflow
	if total == 0 || len(bs) == 0 {
		return 0
	}
	target := q * float64(total)
	var acc float64
	lower := time.Duration(0)
	for _, b := range bs {
		if b.n > 0 && acc+float64(b.n) >= target {
			frac := (target - acc) / float64(b.n)
			return us(lower) + frac*us(b.upper-lower)
		}
		acc += float64(b.n)
		lower = b.upper
	}
	return us(bs[len(bs)-1].upper)
}

// compute turns the accumulated segments into the per-layer metrics.
// units is the workload's count of work units (frames, or memory calls
// for mem-mix) and ops its count of ops.
func (acc *layerAcc) compute(units, ops float64) map[string]float64 {
	out := map[string]float64{}
	reg := acc.reg
	out["sched.dispatch_wait_us_p50"] = histPercentileUS(reg, "sched.dispatch_latency", 0.50)
	out["sched.dispatch_wait_us_p99"] = histPercentileUS(reg, "sched.dispatch_latency", 0.99)
	out["sched.queue_len_max"] = acc.queueMax
	out["sched.help_asked_per_frame"] = ratio(acc.asked, acc.frames)
	out["sched.help_useful_ratio"] = ratio(acc.asked-acc.denied, acc.asked)
	out["exec.run_us_mean"] = ratio(float64(reg["exec.run_time.sum_ns"])/1e3, float64(reg["exec.run_time.count"]))
	out["exec.busy_frac"] = ratio(float64(acc.busy), float64(acc.sites)*float64(acc.makespan))
	out["memory.home_migrations"] = float64(acc.mem.homeMigrations)
	out["memory.shard_contention"] = float64(acc.mem.contention)
	out["memory.params_per_frame"] = ratio(float64(acc.mem.params), acc.frames)
	out["memory.remote_reads_per_op"] = ratio(float64(acc.mem.remoteReads), ops)
	out["msgbus.msgs_per_frame"] = ratio(float64(reg["bus.sent_msgs"]), acc.frames)
	out["msgbus.bytes_per_frame"] = ratio(float64(reg["bus.sent_bytes"]), acc.frames)
	out["msgbus.msgs_per_op"] = ratio(float64(reg["bus.sent_msgs"]), ops)
	out["msgbus.dropped"] = float64(reg["bus.dropped"])
	out["netmgr.send_errors"] = float64(reg["net.send_errors"])
	for _, k := range busKinds {
		out["msgbus.out."+k] = ratio(float64(reg["bus.out."+k]), units)
	}
	for name, ds := range acc.stages {
		out[name] = durPercentileUS(0.5, ds)
	}
	if len(acc.joins) > 0 {
		js := make([]float64, len(acc.joins))
		for i, j := range acc.joins {
			js[i] = float64(j) / float64(time.Millisecond)
		}
		out["cluster.join_ms"] = median(js)
	}
	out["trace.ring_kept_frac"] = 1 // no events recorded, none lost
	if acc.events > 0 {
		out["trace.ring_kept_frac"] = float64(acc.kept) / float64(acc.events)
	}
	return out
}

// unknownBusKinds returns sent kinds that busKinds does not list, so a
// new message kind on a workload's path is noticed.
func unknownBusKinds(reg map[string]int64) []string {
	listed := map[string]bool{}
	for _, k := range busKinds {
		listed[k] = true
	}
	var out []string
	for k, v := range reg {
		if name, ok := strings.CutPrefix(k, "bus.out."); ok && v > 0 && !listed[name] {
			out = append(out, name+"="+strconv.FormatInt(v, 10))
		}
	}
	sort.Strings(out)
	return out
}
