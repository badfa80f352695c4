package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bench"
	"repro/internal/daemon"
	"repro/internal/mthread"
	"repro/internal/workloads"
)

// setupRepsPerProgram is how many clusters are built, and timed, for each
// headline program: the program runs on the last one. Set-up time is the
// median over every build of the pass.
const setupRepsPerProgram = 3

// Workload sizes. They are part of the benchmark's definition: fib-local's
// CPU per frame grows with n (the ready queue deepens), so a different n
// measures a different thing.
const (
	fibLocalN      = 21
	fibSpreadN     = 22
	fibSpreadSites = 4
	primesP        = 200
	primesWidth    = 20
	primesUnit     = 2 * time.Millisecond // simulated cost of one candidate test
)

// Per-program deadlines: a program that has not answered by then counts
// as failed, and the pass carries on with the next program.
const (
	fibLocalDeadline  = 30 * time.Second
	fibSpreadDeadline = 4 * time.Second
	primesDeadline    = 30 * time.Second
)

// Tracer ring sizes (events per site) for traced passes: large enough to
// hold one program's events.
const (
	fibLocalTraceCap  = 1 << 19
	fibSpreadTraceCap = 1 << 18
	primesTraceCap    = 1 << 14
	memTraceCap       = 1 << 10
)

func fibValue(n int) uint64 {
	a, b := uint64(0), uint64(1)
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

func runFibLocal(cfg runCfg) (*phase, error) {
	return runFib(cfg, 1, fibLocalN, fibLocalDeadline, fibLocalTraceCap)
}

func runFibSpread(cfg runCfg) (*phase, error) {
	return runFib(cfg, fibSpreadSites, fibSpreadN, fibSpreadDeadline, fibSpreadTraceCap)
}

// programRun is the outcome of one program.
type programRun struct {
	elapsed time.Duration
	cpu     time.Duration
	frames  uint64 // microframes the cluster executed
	result  []byte
	ok      bool    // answered before the deadline
	peakMB  float64 // peak live heap while it ran
	// retainedKB is the live heap the cluster still held after the
	// program beyond what it held before.
	retainedKB float64
}

// runProgram builds a fresh cluster of spec, runs one program on site and
// tears the cluster down. With a non-nil setup it builds
// setupRepsPerProgram clusters and records their build times there.
// Apart from that only the Submit→result span is timed; the forced
// collections around the program and teardown are not. Every
// program gets a cluster of its own because a long-lived cluster keeps
// megabytes of live heap after each fib program and its throughput then
// drifts by up to 2.5× over a run as that heap grows; a stalled program
// also slows every later one on the same cluster. A non-nil acc receives
// the cluster's layer counters.
func runProgram(spec clusterSpec, setup *setupLog, site int, deadline time.Duration, app daemon.App, args [][]byte, acc *layerAcc) (programRun, error) {
	var c *cluster
	var err error
	if setup != nil {
		c, err = setup.buildReps(spec, setupRepsPerProgram, nil)
	} else {
		c, err = newCluster(spec)
	}
	if err != nil {
		return programRun{}, err
	}
	defer c.close()
	live0 := liveHeapAfterGC()
	seg := beginSegment(c, acc != nil)
	heap := startHeapSampler()
	d := c.sites[site]
	exec0, cpu0, start := c.executed(), cpuNow(), time.Now()
	prog, err := d.Submit(app, args...)
	if err != nil {
		heap.finish()
		seg.end(acc, 0)
		return programRun{}, err
	}
	raw, ok := d.WaitResult(prog, deadline)
	r := programRun{
		elapsed: time.Since(start),
		cpu:     cpuNow() - cpu0,
		frames:  c.executed() - exec0,
		result:  raw,
		ok:      ok,
	}
	r.peakMB = heap.finish() / 1e6
	r.retainedKB = (liveHeapAfterGC() - live0) / 1e3
	seg.end(acc, r.elapsed)
	return r, nil
}

// runFib submits fib(n) at zero Work again and again, each time on a
// seeded site, until the pass's time is up. fib(n) runs exactly
// 3·fib(n+1) microframes.
func runFib(cfg runCfg, sites, n int, deadline time.Duration, traceCap int) (*phase, error) {
	spec := clusterSpec{sites: sites, workUnit: time.Millisecond, seed: cfg.seed}
	if cfg.traced {
		spec.traceCap = traceCap
	}
	want := fibValue(n)
	shape := float64(3 * fibValue(n+1))
	rng := rand.New(rand.NewSource(cfg.seed))
	p := &phase{}
	var acc *layerAcc
	if cfg.traced {
		acc = newLayerAcc()
	}
	setup := &setupLog{}
	var rates, cpus, lats, peaks, retained []float64
	end := time.Now().Add(cfg.dur)
	for p.attempted == 0 || time.Now().Before(end) {
		site := rng.Intn(sites)
		p.attempted++
		r, err := runProgram(spec, setup, site, deadline, workloads.FibApp(), workloads.FibArgs(n, 0), acc)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, r.peakMB)
		retained = append(retained, r.retainedKB)
		if !r.ok {
			p.failed++
			p.reportf("program %d (fib(%d) on site %d) missed its %v deadline: %d of %.0f frames executed",
				p.attempted, n, site, deadline, r.frames, shape)
			continue
		}
		if got := mthread.ParseU64(r.result); got != want {
			p.failed++
			p.wrong = append(p.wrong, fmt.Sprintf("fib(%d) on site %d returned %d, want %d", n, site, got, want))
			continue
		}
		rates = append(rates, shape/r.elapsed.Seconds())
		cpus = append(cpus, us(r.cpu)/float64(r.frames))
		lats = append(lats, us(r.elapsed))
	}

	p.retainedKB = median(retained)
	p.e2e = map[string]float64{
		mSetup: setup.median(),
		mWork:  median(rates),
		mCPU:   median(cpus),
		mOpP50: median(lats),
		mHeap:  maxOf(peaks),
	}
	p.reportf("setup_s            %12.6f s    (median of %d builds of %d sites)", setup.median(), len(setup.times), sites)
	p.reportf("frames_per_s       %12.1f 1/s  (median of %d programs, fib(%d) = %.0f frames each)", median(rates), len(rates), n, shape)
	p.reportf("cpu_us_per_frame   %12.3f us   (median of %d programs)", median(cpus), len(cpus))
	if acc != nil {
		acc.joins = setup.joins
		p.layers = acc.compute(acc.frames, float64(p.attempted))
		if extra := unknownBusKinds(acc.reg); len(extra) > 0 {
			p.reportf("message kinds sent but not in the per-kind list: %v", extra)
		}
	}
	return p, nil
}

// runPrimesPaper is the paper's §5 experiment: the stand-alone sequential
// program and the SDVM on 1 and 4 sites once each, then on 8 sites again
// and again until the pass's time is up. The 8-site run is the headline
// op; the others give speedup_4, speedup_8 and overhead_ratio.
func runPrimesPaper(cfg runCfg) (*phase, error) {
	spec := func(sites int) clusterSpec {
		s := clusterSpec{sites: sites, workUnit: primesUnit, seed: cfg.seed}
		if cfg.traced {
			s.traceCap = primesTraceCap
		}
		return s
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	want := make([]uint64, primesP)
	for i := range want {
		want[i] = workloads.NthPrime(i + 1)
	}
	p := &phase{}
	var acc *layerAcc
	if cfg.traced {
		acc = newLayerAcc()
	}
	setup := &setupLog{}
	times := map[int][]float64{}
	var rates, cpus, lats, peaks, retained []float64

	end := time.Now().Add(cfg.dur)
	seq := bench.RunSeqPrimes(primesP, primesWidth, workloads.PrimesCostPerTest, primesUnit)
	for i := 0; i < 3 || time.Now().Before(end); i++ {
		// The headline op, after one run each on 1 and 4 sites.
		sites, observe, timeSetup := 8, acc, setup
		if i < 2 {
			sites, observe, timeSetup = []int{1, 4}[i], nil, nil
		}
		site := rng.Intn(sites)
		p.attempted++
		r, err := runProgram(spec(sites), timeSetup, site, primesDeadline, workloads.PrimesApp(),
			workloads.PrimesArgs(primesP, primesWidth, workloads.PrimesCostPerTest), observe)
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, r.peakMB)
		if sites == 8 {
			retained = append(retained, r.retainedKB)
		}
		if !r.ok {
			p.failed++
			p.reportf("primes on %d sites (submitted on site %d) missed its %v deadline", sites, site, primesDeadline)
			continue
		}
		if got := workloads.ParsePrimesResult(r.result); !equalU64(got, want) {
			p.failed++
			p.wrong = append(p.wrong, fmt.Sprintf("primes on %d sites returned %d primes, want the first %d (last %d)", sites, len(got), primesP, want[primesP-1]))
			continue
		}
		times[sites] = append(times[sites], r.elapsed.Seconds())
		if sites == 8 {
			rates = append(rates, float64(r.frames)/r.elapsed.Seconds())
			cpus = append(cpus, us(r.cpu)/float64(r.frames))
			lats = append(lats, us(r.elapsed))
		}
	}

	t1, t4, t8 := median(times[1]), median(times[4]), median(times[8])
	p.retainedKB = median(retained)
	p.e2e = map[string]float64{
		mSetup: setup.median(),
		mWork:  median(rates),
		mCPU:   median(cpus),
		mOpP50: median(lats),
		mHeap:  maxOf(peaks),
	}
	p.reportf("setup_s            %12.6f s    (median of %d builds of 8 sites)", setup.median(), len(setup.times))
	p.reportf("t_seq_s %.4f  t1_s %.4f  t4_s %.4f  t8_s %.4f (median of %d)", seq.Seconds(), t1, t4, t8, len(times[8]))
	p.reportf("speedup_4          %12.4f x    (T1/T4; paper Table 1: 3.6)", ratio(t1, t4))
	p.reportf("speedup_8          %12.4f x    (T1/T8; paper Table 1: 7.0)", ratio(t1, t8))
	p.reportf("overhead_ratio     %12.4f x    (T1/Tseq; paper: about 1.03)", ratio(t1, seq.Seconds()))
	p.reportf("cpu_us_per_frame   %12.3f us   (8-site runs)", median(cpus))
	if acc != nil {
		acc.joins = setup.joins
		p.layers = acc.compute(acc.frames, float64(len(retained)))
		if extra := unknownBusKinds(acc.reg); len(extra) > 0 {
			p.reportf("message kinds sent but not in the per-kind list: %v", extra)
		}
	}
	return p, nil
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
