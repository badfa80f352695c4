package main

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxPoller keeps the largest value read every period, from outside the
// program, until finish. Only its goroutine writes max; finish reads it
// after that goroutine has exited.
type maxPoller struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func startMaxPoller(period time.Duration, read func() float64) *maxPoller {
	p := &maxPoller{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			p.max = math.Max(p.max, read())
			select {
			case <-p.stop:
				p.max = math.Max(p.max, read())
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// finish stops the poller and returns the largest value read.
func (p *maxPoller) finish() float64 {
	close(p.stop)
	<-p.done
	return p.max
}

const liveHeapMetric = "/gc/heap/live:bytes"

// liveHeapBytes returns the live-heap figure the collector publishes
// after every mark phase; reading it does not stop the world.
func liveHeapBytes() float64 {
	sample := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64())
}

// startHeapSampler polls the live heap every 5 ms; finish returns the
// peak in bytes.
func startHeapSampler() *maxPoller { return startMaxPoller(5*time.Millisecond, liveHeapBytes) }

// liveHeapAfterGC forces a collection and returns the live heap in bytes,
// so the heap a pass leaves behind can be compared with the heap it began
// with.
func liveHeapAfterGC() float64 {
	runtime.GC()
	return liveHeapBytes()
}

// reservoir keeps a uniform sample of at most cap durations out of every
// one offered (Algorithm R), so per-call latency percentiles cost fixed
// memory however long the run is.
type reservoir struct {
	rng   *rand.Rand
	seen  int
	items []time.Duration
}

const reservoirCap = 1 << 16

func newReservoir(seed int64) *reservoir {
	return &reservoir{rng: rand.New(rand.NewSource(seed)), items: make([]time.Duration, 0, reservoirCap)}
}

func (r *reservoir) add(d time.Duration) {
	r.seen++
	if len(r.items) < reservoirCap {
		r.items = append(r.items, d)
		return
	}
	if j := r.rng.Intn(r.seen); j < reservoirCap {
		r.items[j] = d
	}
}

// weighted is one latency sample standing for weight calls.
type weighted struct {
	d time.Duration
	w float64
}

// percentileUS merges reservoirs — each sample weighted by how many calls
// its reservoir saw per kept sample — and returns the q-quantile in µs.
func percentileUS(q float64, rs ...*reservoir) float64 {
	var all []weighted
	var total float64
	for _, r := range rs {
		if r == nil || len(r.items) == 0 {
			continue
		}
		w := float64(r.seen) / float64(len(r.items))
		for _, d := range r.items {
			all = append(all, weighted{d, w})
		}
		total += float64(r.seen)
	}
	if len(all) == 0 {
		return 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	target := q * total
	var acc float64
	for _, s := range all {
		acc += s.w
		if acc >= target {
			return us(s.d)
		}
	}
	return us(all[len(all)-1].d)
}

// seen sums how many calls the reservoirs were offered.
func seen(rs ...*reservoir) int {
	n := 0
	for _, r := range rs {
		n += r.seen
	}
	return n
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle value (mean of the two middle ones for an even
// count), or 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest value, or 0 for none.
func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// durPercentileUS returns the q-quantile of ds in µs (nearest rank).
func durPercentileUS(q float64, ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return us(s[i])
}

// ratio returns a/b, or 0 when b is 0, so a layer that did no work on a
// workload reads 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// startQueueSampler polls queue-length functions every 2 ms; finish
// returns the longest queue seen.
func startQueueSampler(lens []func() int) *maxPoller {
	return startMaxPoller(2*time.Millisecond, func() float64 {
		longest := 0
		for _, f := range lens {
			longest = max(longest, f())
		}
		return float64(longest)
	})
}
