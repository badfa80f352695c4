package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// mem-mix sizes: 1024 objects of 64 B allocated round-robin over 4 sites,
// driven by 2 closed-loop clients. The whole working set (64 KiB) fits in
// every site's replica cache, which is unbounded.
const (
	memSites    = 4
	memObjects  = 1024
	memObjSize  = 64
	memClients  = 2
	memWritePct = 10
	// memSegments splits a pass into segments on one cluster. Before
	// each segment the clients pause while memSetupReps clusters are
	// built and timed (the first segment runs on the last of them), so
	// that set-up is sampled over the whole run, not at one moment.
	memSegments  = 5
	memSetupReps = 8
	// memWindow is the span over which throughput is counted; the run's
	// figure is the median window, so a stretch of the run slowed by the
	// host does not move it.
	memWindow = time.Second
)

// Latency classes: read or write, issued from the allocating ("home")
// site or from a peer.
const (
	readHome = iota
	readPeer
	writeHome
	writePeer
	numClasses
)

var classNames = [numClasses]string{"read_home", "read_peer", "write_home", "write_peer"}

// memValue encodes the bytes of write seq of object obj by client.
// Reads check the object index, so a read that returns another object's
// bytes is caught.
func memValue(obj int, client int, seq uint64) []byte {
	b := make([]byte, memObjSize)
	binary.LittleEndian.PutUint32(b[0:], uint32(obj))
	binary.LittleEndian.PutUint32(b[4:], uint32(client))
	binary.LittleEndian.PutUint64(b[8:], seq)
	for i := 16; i < memObjSize; i++ {
		b[i] = byte(seq) + byte(i)
	}
	return b
}

// memClient is one closed-loop client. Each object is written by exactly
// one client (object index parity), so its last committed value is the
// last write that client saw succeed.
type memClient struct {
	id  int
	rng *rand.Rand
	lat [numClasses]*reservoir
	ops int
	// perWindow counts the ops completed in each window of the pass.
	perWindow []int
	errs      int
	wrong     []string
	// last successful and last attempted write per owned object.
	committed map[int][]byte
	attempted map[int][]byte
	peerReads int
	writes    int
}

// memSegment is the cluster, objects and clock of one segment.
type memSegment struct {
	c     *cluster
	addrs []types.GlobalAddr
	// issued[o] is the highest write sequence number ever issued for
	// object o; a read may never return a later one.
	issued []atomic.Uint64
	start  time.Time
	end    time.Time
	// window is the length of a throughput window, windows how many the
	// segment has and firstWindow the pass-wide index of its first one.
	window      time.Duration
	windows     int
	firstWindow int
}

func runMemMix(cfg runCfg) (*phase, error) {
	spec := clusterSpec{sites: memSites, workUnit: time.Millisecond, seed: cfg.seed}
	if cfg.traced {
		spec.traceCap = memTraceCap
	}
	pid := types.MakeProgramID(1, 1)
	// lastAddrs holds the objects of the cluster built last.
	var lastAddrs []types.GlobalAddr
	alloc := func(c *cluster) {
		lastAddrs = make([]types.GlobalAddr, memObjects)
		for i := range lastAddrs {
			lastAddrs[i] = c.sites[i%memSites].Mem.Alloc(pid, memValue(i, -1, 0))
		}
	}
	setup := &setupLog{}
	c, err := setup.buildReps(spec, memSetupReps, alloc)
	if err != nil {
		return nil, err
	}
	defer c.close()
	addrs := lastAddrs

	clients := make([]*memClient, memClients)
	for i := range clients {
		cl := &memClient{id: i, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(i))),
			committed: map[int][]byte{}, attempted: map[int][]byte{}}
		for k := range cl.lat {
			cl.lat[k] = newReservoir(cfg.seed*1000 + int64(100*i+k+1))
		}
		clients[i] = cl
	}
	segDur := cfg.dur / memSegments
	windows := max(1, int(math.Round(segDur.Seconds()/memWindow.Seconds())))
	sg := &memSegment{c: c, addrs: addrs, issued: make([]atomic.Uint64, memObjects),
		window: segDur / time.Duration(windows), windows: windows}

	p := &phase{}
	acc := newLayerAcc()
	var elapsed, cpu time.Duration
	var peak float64
	live0 := liveHeapAfterGC()
	for i := 0; i < memSegments; i++ {
		if i > 0 {
			// Set-up samples: clusters built and dropped while the
			// measured cluster idles.
			extra, err := setup.buildReps(spec, memSetupReps, alloc)
			if err != nil {
				return nil, err
			}
			extra.close()
			runtime.GC()
		}
		sg.firstWindow = i * windows
		heap := startHeapSampler()
		seg := beginSegment(c, cfg.traced)
		cpu0 := cpuNow()
		sg.start = time.Now()
		sg.end = sg.start.Add(segDur)
		var wg sync.WaitGroup
		for _, cl := range clients {
			wg.Add(1)
			go func(cl *memClient) {
				defer wg.Done()
				cl.run(sg)
			}(cl)
		}
		wg.Wait()
		took := time.Since(sg.start)
		elapsed += took
		cpu += cpuNow() - cpu0
		seg.end(acc, took)
		peak = math.Max(peak, heap.finish()/1e6)
	}
	p.wrong = append(p.wrong, verifyQuiescent(c, addrs, clients)...)

	var all [numClasses][]*reservoir
	var peerReads, writes int
	for _, cl := range clients {
		p.attempted += cl.ops
		p.failed += cl.errs
		p.wrong = append(p.wrong, cl.wrong...)
		for k := range cl.lat {
			all[k] = append(all[k], cl.lat[k])
		}
		peerReads += cl.peerReads
		writes += cl.writes
	}
	ops := float64(p.attempted)
	rate, nWindows := medianWindowRate(clients, sg.window)
	p.retainedKB = (liveHeapAfterGC() - live0) / 1e3 / ops

	reads := append(append([]*reservoir{}, all[readHome]...), all[readPeer]...)
	wrs := append(append([]*reservoir{}, all[writeHome]...), all[writePeer]...)
	every := append(append([]*reservoir{}, reads...), wrs...)
	p.e2e = map[string]float64{
		mSetup: setup.median(),
		mWork:  rate,
		mCPU:   us(cpu) / ops,
		mOpP50: percentileUS(0.50, every...),
		mHeap:  peak,
	}
	p.reportf("setup_s            %12.6f s    (median of %d builds of %d sites with %d objects)", setup.median(), len(setup.times), memSites, memObjects)
	p.reportf("mem_ops_per_s      %12.1f 1/s  (median of %d windows of %v; whole run %.1f; %d clients, %d%% writes)",
		rate, nWindows, sg.window.Round(time.Millisecond), ops/elapsed.Seconds(), memClients, memWritePct)
	p.reportf("read_p50_us        %12.3f us   (%d reads)", percentileUS(0.50, reads...), seen(reads...))
	p.reportf("read_p99_us        %12.3f us", percentileUS(0.99, reads...))
	p.reportf("write_p50_us       %12.3f us   (%d writes)", percentileUS(0.50, wrs...), seen(wrs...))
	p.reportf("write_p99_us       %12.3f us", percentileUS(0.99, wrs...))
	if cfg.traced {
		acc.joins = setup.joins
		p.layers = acc.compute(ops, ops)
		for k := 0; k < numClasses; k++ {
			p.layers["memory."+classNames[k]+"_us_p50"] = percentileUS(0.50, all[k]...)
			p.layers["memory."+classNames[k]+"_us_p99"] = percentileUS(0.99, all[k]...)
		}
		p.layers["memory.replica_hit_ratio"] = ratio(float64(acc.mem.replicaHits), float64(peerReads))
		p.layers["memory.invalidations_per_write"] = ratio(float64(acc.mem.replicaInvals), float64(writes))
		if extra := unknownBusKinds(acc.reg); len(extra) > 0 {
			p.reportf("message kinds sent but not in the per-kind list: %v", extra)
		}
	}
	return p, nil
}

// run issues ops until the segment's time is up: each op picks a seeded
// site, and reads or (memWritePct of the time) writes a seeded object.
func (cl *memClient) run(sg *memSegment) {
	c := sg.c
	for now := time.Now(); now.Before(sg.end); now = time.Now() {
		site := cl.rng.Intn(memSites)
		if cl.rng.Intn(100) < memWritePct {
			obj := 2*cl.rng.Intn(memObjects/2) + cl.id
			seq := sg.issued[obj].Add(1)
			val := memValue(obj, cl.id, seq)
			cl.attempted[obj] = val
			t := time.Now()
			err := c.sites[site].Mem.Write(sg.addrs[obj], 0, val)
			d := time.Since(t)
			cl.writes++
			if err != nil {
				cl.errs++
			} else {
				cl.committed[obj] = val
			}
			cl.lat[class(writeHome, site, obj)].add(d)
		} else {
			obj := cl.rng.Intn(memObjects)
			t := time.Now()
			got, err := c.sites[site].Mem.Read(sg.addrs[obj])
			d := time.Since(t)
			if err != nil {
				cl.errs++
			} else if msg := checkRead(got, obj, sg.issued[obj].Load()); msg != "" {
				cl.wrong = append(cl.wrong, fmt.Sprintf("read of object %d on site %d: %s", obj, site, msg))
			}
			if site != obj%memSites {
				cl.peerReads++
			}
			cl.lat[class(readHome, site, obj)].add(d)
		}
		cl.ops++
		// An op started just before the segment's end counts in its
		// last window.
		w := sg.firstWindow + min(int(now.Sub(sg.start)/sg.window), sg.windows-1)
		for len(cl.perWindow) <= w {
			cl.perWindow = append(cl.perWindow, 0)
		}
		cl.perWindow[w]++
	}
}

// medianWindowRate returns the median ops per second over the pass's
// windows, each window long, and how many windows there were.
func medianWindowRate(clients []*memClient, window time.Duration) (float64, int) {
	var total []int
	for _, cl := range clients {
		for w, n := range cl.perWindow {
			for len(total) <= w {
				total = append(total, 0)
			}
			total[w] += n
		}
	}
	rates := make([]float64, len(total))
	for i, n := range total {
		rates[i] = float64(n) / window.Seconds()
	}
	return median(rates), len(rates)
}

// class picks the latency class of an op on site against object obj:
// base is readHome or writeHome, the peer class follows it.
func class(base, site, obj int) int {
	if site == obj%memSites {
		return base
	}
	return base + 1
}

// checkRead validates bytes read from object obj while writes are in
// flight: they must be a value written to obj, no newer than the newest
// write issued for it.
func checkRead(got []byte, obj int, issued uint64) string {
	if len(got) != memObjSize {
		return fmt.Sprintf("%d bytes, want %d", len(got), memObjSize)
	}
	if o := int(binary.LittleEndian.Uint32(got)); o != obj {
		return fmt.Sprintf("holds object %d's bytes", o)
	}
	seq := binary.LittleEndian.Uint64(got[8:])
	if seq > issued {
		return fmt.Sprintf("write %d read before it was issued (newest issued %d)", seq, issued)
	}
	client := int32(binary.LittleEndian.Uint32(got[4:]))
	if !bytes.Equal(got, memValue(obj, int(client), seq)) {
		return "bytes do not match any write"
	}
	return ""
}

// verifyQuiescent reads every object from every site after the clients
// stopped: each read must equal the object's last committed write (or,
// after a failed write, that write's value).
func verifyQuiescent(c *cluster, addrs []types.GlobalAddr, clients []*memClient) []string {
	var wrong []string
	for obj, addr := range addrs {
		owner := clients[obj%memClients]
		want := owner.committed[obj]
		if want == nil {
			want = memValue(obj, -1, 0)
		}
		alt := owner.attempted[obj]
		for s, d := range c.sites {
			got, err := d.Mem.Read(addr)
			if err != nil {
				wrong = append(wrong, fmt.Sprintf("final read of object %d on site %d: %v", obj, s, err))
				continue
			}
			if !bytes.Equal(got, want) && !bytes.Equal(got, alt) {
				wrong = append(wrong, fmt.Sprintf("final read of object %d on site %d returned write %d, last committed %d",
					obj, s, binary.LittleEndian.Uint64(got[8:]), binary.LittleEndian.Uint64(want[8:])))
			}
		}
	}
	return wrong
}
