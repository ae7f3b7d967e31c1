package main

import (
	"fmt"
	"math"
	"math/rand"
	goruntime "runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topology"
	"repro/internal/workload"
	"repro/perfbench/tracert"
)

// The des-churn scenario: the paper's evaluation setting (transit-stub
// topology at its default scale, p_s=0.7, δ=3, TTL=4) at three times the
// paper's population, under a lookup stream with a crash wave and steady
// membership turnover, so that heartbeats, routing, failure recovery and
// joins all run.
const (
	desPeers       = 3000
	desItems       = 6000
	desLookups     = 150_000
	desLookupRate  = 300.0 // lookups per simulated second
	desZipf        = 1.1
	desCrashShare  = 0.05
	desChurnRate   = 0.5 // joins, and separately leaves, per simulated second
	desStoreBatch  = 64
	desValuePrefix = "value-of-"
	// desSeeds is how many distinct scenarios a run draws from its seed.
	// Which items sit on the peers the crash wave takes down, and how hot
	// they are, is fixed by the scenario's seed and moves the failure ratio
	// and the simulated latencies by several percent; a run reports them
	// over desSeeds scenarios so one unlucky draw weighs a quarter.
	desSeeds = 4
)

// desSeed is the seed of the run's i-th scenario.
func desSeed(seed int64, i int) int64 { return seed*desSeeds + int64(i) }

// desConfig is the protocol configuration of the paper-figure experiments
// (internal/exp's expConfig at p_s=0.7).
func desConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Ps = 0.7
	cfg.Delta = 3
	cfg.TTL = 4
	cfg.HelloEvery = 5 * sim.Second
	cfg.HelloTimeout = 12 * sim.Second
	cfg.FingerRefreshEvery = 5 * sim.Second
	cfg.LookupTimeout = 5 * sim.Second
	cfg.JoinTimeout = 40 * sim.Second
	return cfg
}

// desRep is one repetition of des-churn: a fresh set-up and one run.
type desRep struct {
	topoS, popS, preloadS float64
	runS, cpuS            float64
	steal                 float64 // host steal share during the run phase
	heapMB                float64

	events  uint64 // engine events dispatched in the run phase
	msgs    uint64 // simnet sends in the run phase
	bytes   uint64
	lookups tally // every lookup issued; failed = answered with a wrong value
	found   int   // lookups answered with the item
	stores  tally // preload stores; failed = not stored
	simLat  []float64
	storeMs []float64
	hopsSum float64
	// trace holds the run phase's spans when the repetition was traced.
	trace *tracert.Report
}

// key is the deterministic signature of a repetition: every output that a
// seed fixes. Repetitions of one seed, traced or not, must agree on it.
func (r *desRep) key() string {
	p50, _ := percentile(append([]float64(nil), r.simLat...), 50)
	p99, _ := percentile(append([]float64(nil), r.simLat...), 99)
	return fmt.Sprintf("events=%d msgs=%d found=%d/%d wrong=%d p50=%.3fms p99=%.3fms",
		r.events, r.msgs, r.found, r.lookups.attempted, r.lookups.failed, p50, p99)
}

// check fails the run when a lookup of the repetition returned a wrong
// value. A lookup that finds nothing lowers ok_ratio but is no error.
func (r *desRep) check(rp *report) {
	if r.lookups.failed > 0 {
		rp.fail("%d of %d lookups returned a wrong value", r.lookups.failed, r.lookups.attempted)
	}
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runDES performs one repetition. Every input is drawn from seed: the
// topology, the protocol's random source, and (from a separate stream, so
// the workload does not perturb the protocol) key draws, origins, the
// arrival schedule and the churn schedule.
func runDES(seed int64, traced bool) (*desRep, error) {
	rep := &desRep{}
	cfg := desConfig()
	// The heap is measured as growth over this baseline, so earlier
	// repetitions' samples do not count against this one.
	var ms goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	t0 := time.Now()
	topo, err := topology.GenerateTransitStub(topology.DefaultConfig(), seed)
	if err != nil {
		return nil, err
	}
	topo.PrecomputeStubMatrix(goruntime.GOMAXPROCS(0))
	rep.topoS = time.Since(t0).Seconds()

	t0 = time.Now()
	eng := sim.New(seed)
	net := simnet.New(eng, topo, simnet.DefaultConfig())
	var rt runtime.Runtime = simnet.NewRuntime(eng, net)
	var tr *tracert.Runtime
	if traced {
		tr = tracert.New(rt, true)
		tr.T.SetPending(eng.Pending)
		rt = tr
	}
	sys, err := core.NewSystem(rt, cfg, topo.StubNodes()[0])
	if err != nil {
		return nil, err
	}
	peers, _, err := sys.BuildPopulation(core.PopulationOpts{N: desPeers})
	if err != nil {
		return nil, err
	}
	sys.Settle(2 * cfg.HelloEvery)
	rep.popS = time.Since(t0).Seconds()

	wl := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := workload.Keys(desItems)
	t0 = time.Now()
	if err := desPreload(rt, peers, keys, wl, rep); err != nil {
		return nil, err
	}
	rep.preloadS = time.Since(t0).Seconds()

	goruntime.GC()
	goruntime.ReadMemStats(&ms)
	rep.heapMB = float64(ms.HeapAlloc-base) / (1 << 20)

	if tr != nil {
		tr.T.Reset()
	}
	ev0, st0 := eng.Dispatched(), net.Stats()
	cpu0, w0 := cpuSeconds(), time.Now()
	steal0, total0 := hostSteal()
	if err := desDrive(sys, rt, topo, peers, keys, wl, rep); err != nil {
		return nil, err
	}
	rep.runS = time.Since(w0).Seconds()
	rep.cpuS = cpuSeconds() - cpu0
	if steal, total := hostSteal(); total > total0 {
		rep.steal = float64(steal-steal0) / float64(total-total0)
	}
	st := net.Stats()
	rep.events = eng.Dispatched() - ev0
	rep.msgs = st.MessagesSent - st0.MessagesSent
	rep.bytes = st.BytesSent - st0.BytesSent
	if tr != nil {
		r := tr.T.Report()
		rep.trace = &r
	}
	if err := sys.CheckInvariants(); err != nil {
		return rep, fmt.Errorf("invariants after the final settle: %w", err)
	}
	return rep, nil
}

// desPreload stores every key once, in batches, from origins the workload
// stream picks.
func desPreload(rt runtime.Runtime, peers []*core.Peer, keys []string, wl *rand.Rand, rep *desRep) error {
	for start := 0; start < len(keys); start += desStoreBatch {
		end := min(start+desStoreBatch, len(keys))
		remaining := end - start
		for _, key := range keys[start:end] {
			p := peers[wl.Intn(len(peers))]
			p.Store(key, desValuePrefix+key, func(r core.OpResult) {
				remaining--
				rep.stores.add(r.OK)
				if r.OK {
					rep.storeMs = append(rep.storeMs, float64(r.Latency)/float64(runtime.Millisecond))
				}
			})
		}
		if err := rt.Await(func() bool { return remaining == 0 }); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	if rep.stores.failed > 0 {
		return fmt.Errorf("preload: %d of %d stores failed", rep.stores.failed, rep.stores.attempted)
	}
	return nil
}

// expGap draws an exponential inter-arrival gap at rate per simulated
// second.
func expGap(wl *rand.Rand, rate float64) runtime.Time {
	return runtime.Time(wl.ExpFloat64() / rate * float64(runtime.Second))
}

// desDrive runs the measured phase: Poisson lookups with Zipf keys, a crash
// wave a third of the way in, Poisson joins and graceful leaves throughout,
// then a settle long enough for failure detection and repair to finish.
// Arrivals chain one event at a time, so the workload adds one pending event
// per stream to the queue instead of the whole schedule.
func desDrive(sys *core.System, rt runtime.Runtime, topo *topology.Graph, initial []*core.Peer, keys []string, wl *rand.Rand, rep *desRep) error {
	members := append([]*core.Peer(nil), initial...)
	// live picks a random member whose join completed and that is still up.
	live := func() *core.Peer {
		i := wl.Intn(len(members))
		for k := 0; k < len(members); k++ {
			if p := members[(i+k)%len(members)]; p.Alive() {
				return p
			}
		}
		return nil
	}
	zipf, err := workload.NewZipfPicker(wl, desZipf, 1, len(keys))
	if err != nil {
		return err
	}
	span := runtime.Time(float64(desLookups) / desLookupRate * float64(runtime.Second))
	end := rt.Now() + span

	issued, completed := 0, 0
	var arrive func()
	arrive = func() {
		if p := live(); p != nil {
			key := keys[zipf.Pick()]
			issued++
			p.Lookup(key, func(r core.OpResult) {
				completed++
				ok := !r.OK || r.Value == desValuePrefix+key
				rep.lookups.add(ok)
				if r.OK && ok {
					rep.found++
					rep.simLat = append(rep.simLat, float64(r.Latency)/float64(runtime.Millisecond))
					rep.hopsSum += float64(r.Hops)
				}
			})
		}
		if issued < desLookups {
			rt.Schedule(expGap(wl, desLookupRate), arrive)
		}
	}
	rt.Schedule(expGap(wl, desLookupRate), arrive)

	stubs := topo.StubNodes()
	var join func()
	join = func() {
		sys.Join(core.JoinOpts{Host: stubs[wl.Intn(len(stubs))], Capacity: 1}, func(p *core.Peer, _ core.JoinStats) {
			members = append(members, p)
		})
		if next := expGap(wl, desChurnRate); rt.Now()+next < end {
			rt.Schedule(next, join)
		}
	}
	rt.Schedule(expGap(wl, desChurnRate), join)
	var leave func()
	leave = func() {
		if p := live(); p != nil {
			p.Leave()
		}
		if next := expGap(wl, desChurnRate); rt.Now()+next < end {
			rt.Schedule(next, leave)
		}
	}
	rt.Schedule(expGap(wl, desChurnRate), leave)
	rt.Schedule(span/3, func() {
		var up []*core.Peer
		for _, p := range members {
			if p.Alive() {
				up = append(up, p)
			}
		}
		n := int(math.Round(desCrashShare * float64(len(up))))
		for _, i := range wl.Perm(len(up))[:n] {
			up[i].Crash()
		}
	})

	cfg := sys.Cfg
	rt.Sleep(span + cfg.LookupTimeout + 8*cfg.HelloTimeout + 10*cfg.FingerRefreshEvery)
	if issued != desLookups || completed != issued {
		return fmt.Errorf("run: %d lookups issued, %d completed, want %d", issued, completed, desLookups)
	}
	return nil
}

// benchDES repeats des-churn, each time from a fresh set-up, until the
// measured time is spent. Repetition i runs scenario i mod desSeeds, and
// every scenario runs at least once and the first twice, so determinism is
// checked. Outputs the seed fixes (ok_ratio, the simulated latencies) are
// pooled over the first run of each scenario. Set-up time and memory are
// medians over the repetitions; throughput and CPU per lookup are medians
// over the quieter half of them, the half with the least host steal in the
// run phase (see quietHalf).
func benchDES(seed int64, seconds int, trace bool, r *report) error {
	if trace {
		return traceDES(desSeed(seed, 0), r)
	}
	var reps []*desRep
	start := time.Now()
	for len(reps) <= desSeeds || time.Since(start) < time.Duration(seconds)*time.Second {
		rep, err := runDES(desSeed(seed, len(reps)%desSeeds), false)
		if rep == nil {
			return err
		}
		if err != nil {
			r.fail("%v", err)
		}
		rep.check(r)
		reps = append(reps, rep)
	}
	var setup, heap []float64
	for i, rep := range reps {
		if k0, k := reps[i%desSeeds].key(), rep.key(); k != k0 {
			r.fail("repetition %d differs from repetition %d of the same seed: %s, want %s", i, i%desSeeds, k, k0)
		}
		setup = append(setup, rep.topoS+rep.popS+rep.preloadS)
		heap = append(heap, rep.heapMB)
		r.ops.merge(rep.lookups)
		r.ops.merge(rep.stores)
	}
	quiet := quietHalf(reps, func(r *desRep) float64 { return r.steal })
	var ops, cpu, runs []float64
	for _, rep := range quiet {
		ops = append(ops, float64(rep.lookups.attempted)/rep.runS)
		cpu = append(cpu, rep.cpuS/float64(rep.lookups.attempted)*1e6)
		runs = append(runs, rep.runS)
	}
	var found, attempted int
	var lat, store []float64
	var events uint64
	for _, rep := range reps[:desSeeds] {
		found += rep.found
		attempted += rep.lookups.attempted
		lat = append(lat, rep.simLat...)
		store = append(store, rep.storeMs...)
		events += rep.events
	}
	r.set("setup_s", median(setup), "s")
	r.set("ops_per_s", median(ops), "1/s")
	r.set("cpu_us_per_op", median(cpu), "us")
	r.set("mem_mb", median(heap), "MB")
	r.set("ok_ratio", float64(found)/float64(attempted), "ratio")
	r.set("get_mean_ms", mean(lat), "ms")
	r.pct("get_p90_ms", lat, 90, "ms")
	r.set("put_mean_ms", mean(store), "ms")
	r.pct("put_p90_ms", store, 90, "ms")
	r.note("sim_lookup_p50_ms", pctOr0(lat, 50), "ms")
	r.note("sim_lookup_p99_ms", pctOr0(lat, 99), "ms")

	r.note("des_run_s", median(runs), "s")
	r.note("fail_ratio", 1-float64(found)/float64(attempted), "ratio")
	r.note("sim.events", float64(events)/desSeeds, "count")
	r.note("repetitions", float64(len(reps)), "count")
	return nil
}

// traceDES runs des-churn once untraced and once traced from the same seed,
// checks that tracing changed no output, and reports the traced run's
// per-layer breakdown of the run phase.
func traceDES(seed int64, r *report) error {
	plain, err := runDES(seed, false)
	if plain == nil {
		return err
	}
	if err != nil {
		r.fail("%v", err)
	}
	traced, err := runDES(seed, true)
	if traced == nil {
		return err
	}
	if err != nil {
		r.fail("%v", err)
	}
	plain.check(r)
	traced.check(r)
	if a, b := plain.key(), traced.key(); a != b {
		r.fail("the traced run differs from the untraced one: %s, want %s", b, a)
	}
	r.ops.merge(traced.lookups)
	r.ops.merge(traced.stores)

	tr := traced.trace
	l := layerSet{
		"sim.events":                 float64(traced.events),
		"sim.events_per_s":           float64(plain.events) / plain.runS,
		"sim.queue_peak":             float64(tr.QueuePeak),
		"sim.self_s":                 float64(tr.Engine.SelfNs) / 1e9,
		"simnet.msgs":                float64(traced.msgs),
		"simnet.bytes":               float64(traced.bytes),
		"core.lookup_hops_mean":      traced.hopsSum / float64(traced.found),
		"core.lookup_latency_us_p50": pctOr0(traced.simLat, 50) * 1e3,
		"core.store_latency_us_p50":  pctOr0(traced.storeMs, 50) * 1e3,
		"setup.topology_s":           plain.topoS,
		"setup.population_s":         plain.popS,
		"setup.preload_s":            plain.preloadS,
		"trace.overhead_pct":         (traced.runS/plain.runS - 1) * 100,
		"trace.unaccounted_s":        traced.runS - selfTotal(tr),
	}
	l.addSpans(tr, "simnet")
	l.emit(r)
	r.note("des_run_s.untraced", plain.runS, "s")
	r.note("des_run_s.traced", traced.runS, "s")
	return nil
}
