package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
	"repro/perfbench/tracert"
)

// The kv workloads' inputs: a universe of 256-byte values, Zipf-popular
// keys, and an open-loop rate about a tenth of what two closed-loop clients
// sustain on a 2-core host, low enough that requests rarely queue.
const (
	kvKeys       = 2000
	kvValueBytes = 256
	kvZipf       = 1.1
	kvOpenRate   = 200.0 // GETs per second in kv-read's open loop
	kvClusters   = 5     // clusters booted per run; see benchKV
	kvIdle       = time.Second
	kvTick       = time.Second // closed-loop window; see closedLoop
)

// kvUniverse is the keys every kv workload preloads and then draws from.
var kvUniverse = workload.Keys(kvKeys)

// kvValue is a value that names its key and its write: "key;gen;" padded to
// kvValueBytes, so a GET can be checked against the key it asked for.
func kvValue(key string, gen int) []byte {
	v := make([]byte, kvValueBytes)
	n := copy(v, fmt.Sprintf("%s;%d;", key, gen))
	for i := n; i < len(v); i++ {
		v[i] = 'x'
	}
	return v
}

// carriesKey accepts any value written for key.
func carriesKey(key string, body []byte) bool {
	return len(body) == kvValueBytes && bytes.HasPrefix(body, []byte(key+";"))
}

// isPreloaded accepts only the preload's value for key.
func isPreloaded(key string, body []byte) bool { return bytes.Equal(body, kvValue(key, 0)) }

// zipfKeys draws keys of kvUniverse with Zipf(kvZipf) popularity from rng.
func zipfKeys(rng *rand.Rand) func() string {
	z, err := workload.NewZipfPicker(rng, kvZipf, 1, kvKeys)
	if err != nil {
		panic(err) // the constants above are valid
	}
	return func() string { return kvUniverse[z.Pick()] }
}

// kvEnv is a booted, preloaded cluster with one client connection to each
// process.
type kvEnv struct {
	c        *cluster
	conns    []*conn
	bootS    float64
	preloadS float64
}

func (e *kvEnv) close() {
	for _, c := range e.conns {
		c.close()
	}
	e.c.stop()
}

// bootKV boots a cluster and stores every key once through its /kv
// servers, each connection taking every other key.
func bootKV(spec clusterSpec, dir string, ops *tally, el *errLog) (*kvEnv, error) {
	t0 := time.Now()
	c, err := startCluster(spec, dir)
	env := &kvEnv{c: c}
	if err != nil {
		return env, err
	}
	env.bootS = time.Since(t0).Seconds()
	for _, n := range c.nodes {
		env.conns = append(env.conns, newConn(n.http))
	}
	t0 = time.Now()
	var samples []sample
	done := make(chan []sample)
	for i, cn := range env.conns {
		go func(i int, cn *conn) {
			var out []sample
			for k := i; k < kvKeys; k += len(env.conns) {
				key := kvUniverse[k]
				s := time.Now()
				err := cn.do(op{put: true, key: key, value: kvValue(key, 0)})
				out = append(out, sample{put: true, ok: err == nil, ms: float64(time.Since(s)) / 1e6})
				if err != nil {
					el.add(err)
				}
			}
			done <- out
		}(i, cn)
	}
	for range env.conns {
		samples = append(samples, <-done...)
	}
	env.preloadS = time.Since(t0).Seconds()
	ops.count(samples)
	return env, nil
}

// kvRun holds what every kv workload shares: its log directory and the
// request error log.
type kvRun struct {
	dir string
	el  errLog
}

// newKVRun makes the run's log directory inside the checkout.
func newKVRun(workload string, seed int64) (*kvRun, error) {
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-seed%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &kvRun{dir: dir}, nil
}

// finish removes the logs of a clean run and keeps those of a failed one.
func (k *kvRun) finish(r *report, err error) {
	for _, e := range k.el.errs {
		r.fail("request: %s", e)
	}
	if err == nil && len(r.errs) == 0 {
		os.RemoveAll(k.dir) //nolint:errcheck // leftover logs are harmless
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: cluster logs kept in %s\n", k.dir)
}

// checkHealthy requires /healthz to answer 200 on every process.
func checkHealthy(env *kvEnv, r *report) {
	for _, n := range env.c.nodes {
		resp, err := http.Get("http://" + n.http + "/healthz")
		if err != nil {
			r.fail("%s /healthz: %v", n.name, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			r.fail("%s /healthz: status %d", n.name, resp.StatusCode)
		}
	}
}

// readGens are the GET-only client streams of kv-read's closed loop.
func readGens(seed int64, n int) []func() op {
	gens := make([]func() op, n)
	for i := range gens {
		key := zipfKeys(rand.New(rand.NewSource(seed*1000 + int64(i))))
		gens[i] = func() op { return op{key: key(), check: isPreloaded} }
	}
	return gens
}

// writeGens are kv-write's client streams: half PUTs, half GETs, both over
// Zipf keys of the preloaded universe, so the stored set keeps its size.
func writeGens(seed int64, n int) []func() op {
	gens := make([]func() op, n)
	for i := range gens {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		key := zipfKeys(rng)
		gen := i << 32
		gens[i] = func() op {
			k := key()
			if rng.Intn(2) == 0 {
				gen++
				return op{put: true, key: k, value: kvValue(k, gen)}
			}
			return op{key: k, check: carriesKey}
		}
	}
	return gens
}

// readSchedule is kv-read's open-loop arrival schedule.
func readSchedule(seed int64, d time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed*1000 + 999))
	key := zipfKeys(rng)
	return poissonSchedule(rng, kvOpenRate, d, func(*rand.Rand) op { return op{key: key(), check: isPreloaded} })
}

// benchKVRead runs kv-read, which has only a traced run: it feeds the GET
// decomposition in LAYER_BUDGET.md and is not judged.
func benchKVRead(seed int64, seconds int, trace bool, r *report) error {
	if !trace {
		return fmt.Errorf("kv-read runs only with --trace 1")
	}
	return benchKV("kv-read", seed, seconds, trace, r)
}

func benchKVWrite(seed int64, seconds int, trace bool, r *report) error {
	return benchKV("kv-write", seed, seconds, trace, r)
}

// benchKV runs a kv workload: traced (kv-read or kv-write, see traceKV) or
// kv-write untraced. Untraced, it runs kvClusters k=3 clusters in turn,
// each booted and preloaded afresh, and splits the measured time between
// their closed loops of half PUTs and half GETs. Each boot forms its own
// ring and trees and grows its own heap, so a run covers several rather
// than one. Set-up time and memory are medians over the clusters;
// throughput, CPU per op and latency come from the quieter half of the
// closed loops' windows (see quietHalf).
func benchKV(workload string, seed int64, seconds int, trace bool, r *report) (err error) {
	run, err := newKVRun(workload, seed)
	if err != nil {
		return err
	}
	defer func() { run.finish(r, err) }()
	if trace {
		return traceKV(run, workload == "kv-write", seed, seconds, r)
	}
	spec := clusterSpec{bin: "hybridnode", k: 3, seed: seed}
	d := time.Duration(seconds) * time.Second / kvClusters
	var setups, mems []float64
	var wins []window
	for i := int64(0); i < kvClusters; i++ {
		stream := seed*kvClusters + i
		if err := func() error {
			env, err := bootKV(spec, run.dir, &r.ops, &run.el)
			defer env.close()
			if err != nil {
				return err
			}
			setups = append(setups, env.bootS+env.preloadS)
			samples, ws, err := closedLoop(env.conns, d, kvTick, writeGens(stream, len(env.conns)), env.c.cpu, &run.el)
			r.ops.count(samples)
			wins = append(wins, ws...)
			if err != nil {
				return err
			}
			u, err := env.c.usage()
			if err != nil {
				return err
			}
			mems = append(mems, float64(u.rss)/(1<<20))
			checkHealthy(env, r)
			return nil
		}(); err != nil {
			return err
		}
	}

	var rates, cpus, gets, puts []float64
	steal := 0.0
	quiet := quietHalf(wins, func(w window) float64 { return w.steal })
	for _, w := range quiet {
		rates = append(rates, float64(len(w.samples))/w.secs)
		if len(w.samples) > 0 {
			cpus = append(cpus, w.cpu/float64(len(w.samples))*1e6)
		}
		g, p := latencies(w.samples)
		gets, puts = append(gets, g...), append(puts, p...)
		steal += w.steal / float64(len(quiet))
	}

	r.set("setup_s", median(setups), "s")
	r.set("ops_per_s", median(rates), "1/s")
	r.set("cpu_us_per_op", median(cpus), "us")
	r.set("mem_mb", median(mems), "MB")
	r.set("ok_ratio", r.ops.okRatio(), "ratio")
	r.set("get_mean_ms", mean(gets), "ms")
	r.pct("get_p90_ms", gets, 90, "ms")
	r.set("put_mean_ms", mean(puts), "ms")
	r.pct("put_p90_ms", puts, 90, "ms")
	r.note("fail_ratio", 1-r.ops.okRatio(), "ratio")
	r.note("quiet_windows.steal_pct", steal*100, "%")
	for _, q := range []float64{50, 99} {
		r.note(fmt.Sprintf("get_p%g_ms", q), pctOr0(gets, q), "ms")
		r.note(fmt.Sprintf("put_p%g_ms", q), pctOr0(puts, q), "ms")
	}
	return nil
}

// traceKV measures the per-layer breakdown of a kv workload. It first runs
// the workload's closed loop for a quarter of the time on a shipped
// hybridnode cluster, for the set-up phases and the untraced throughput the
// tracing overhead is reported against. It then boots a benchnode cluster,
// measures its idle CPU, and runs the traced window: kv-read's open loop
// (where one GET's latency is decomposed), or kv-write's closed loop. Lock
// waits and holds under load come from a closed loop after that (kv-read)
// or from the same window (kv-write).
func traceKV(run *kvRun, write bool, seed int64, seconds int, r *report) error {
	spec := clusterSpec{bin: "hybridnode", k: 1, seed: seed}
	gens := func() []func() op { return readGens(seed, 2) }
	if write {
		spec.k = 3
		gens = func() []func() op { return writeGens(seed, 2) }
	}
	d := time.Duration(seconds) * time.Second / 2
	l := layerSet{}

	ref, err := bootKV(spec, run.dir, &r.ops, &run.el)
	if err != nil {
		ref.close()
		return err
	}
	l["setup.cluster_boot_s"], l["setup.preload_s"] = ref.bootS, ref.preloadS
	refSamples, refWins, err := closedLoop(ref.conns, d/2, kvTick, gens(), ref.c.cpu, &run.el)
	ref.close()
	if err != nil {
		return err
	}
	r.ops.count(refSamples)

	spec.bin, spec.traced = "benchnode", true
	env, err := bootKV(spec, run.dir, &r.ops, &run.el)
	defer env.close()
	if err != nil {
		return err
	}
	u0, err := env.c.usage()
	if err != nil {
		return err
	}
	time.Sleep(kvIdle)
	_, idle, err := env.c.cpuSince(u0)
	if err != nil {
		return err
	}
	l["proc.idle_cpu_pct"] = idle / kvIdle.Seconds() * 100

	// measure runs load between two span reports and returns the merged
	// spans, the load's samples and windows, and each process's CPU.
	type traced struct {
		m       *merged
		samples []sample
		wins    []window
		cpu     []float64
	}
	measure := func(load func() ([]sample, []window, error)) (t traced, err error) {
		before, err := fetchReports(env.c, true)
		if err != nil {
			return t, err
		}
		u0, err := env.c.usage()
		if err != nil {
			return t, err
		}
		if t.samples, t.wins, err = load(); err != nil {
			return t, err
		}
		if t.cpu, _, err = env.c.cpuSince(u0); err != nil {
			return t, err
		}
		reps, err := fetchReports(env.c, true)
		if err != nil {
			return t, err
		}
		// The protocol's histograms count from the node's start; the
		// window's share is the difference.
		t.m = merge(reps)
		b := merge(before)
		t.m.lookupUs = subHist(t.m.lookupUs, b.lookupUs)
		t.m.storeUs = subHist(t.m.storeUs, b.storeUs)
		t.m.hops = subHist(t.m.hops, b.hops)
		return t, nil
	}
	closed := func() ([]sample, []window, error) {
		return closedLoop(env.conns, d, kvTick, gens(), env.c.cpu, &run.el)
	}
	a, err := measure(func() ([]sample, []window, error) {
		if write {
			return closed()
		}
		return openLoop(env.conns, readSchedule(seed, d), &run.el), nil, nil
	})
	if err != nil {
		return err
	}
	b := a
	if !write {
		if b, err = measure(closed); err != nil {
			return err
		}
		r.ops.count(b.samples)
	}
	r.ops.count(a.samples)
	aGets, _ := latencies(a.samples)
	checkHealthy(env, r)

	rate := func(ws []window) float64 {
		var xs []float64
		for _, w := range ws {
			xs = append(xs, float64(len(w.samples))/w.secs)
		}
		return median(xs)
	}
	awaitP50 := pctOr0(a.m.trace.AwaitUs, 50)
	l["executor.await_us_p50"] = awaitP50
	l["executor.await_slack_us_p50"] = pctOr0(a.m.trace.AwaitSlackUs, 50)
	l["executor.do_wait_us_p99"] = pctOr0(b.m.trace.DoWaitUs, 99)
	l["executor.do_hold_us_p99"] = pctOr0(b.m.trace.DoHoldUs, 99)
	l["net.send_us_p50"] = pctOr0(a.m.trace.SendUs, 50)
	l["http.self_us_p50"] = pctOr0(aGets, 50)*1e3 - awaitP50
	l["proc.cpu_s.bootstrap"], l["proc.cpu_s.worker"] = b.cpu[0], b.cpu[1]
	l["core.lookup_latency_us_p50"] = histQuantile(a.m.lookupUs, 0.5)
	l["core.store_latency_us_p50"] = histQuantile(a.m.storeUs, 0.5)
	if a.m.hops.Count > 0 {
		l["core.lookup_hops_mean"] = a.m.hops.Sum / float64(a.m.hops.Count)
	}
	l["trace.overhead_pct"] = (rate(refWins)/rate(b.wins) - 1) * 100
	l["trace.unaccounted_s"] = a.cpu[0] + a.cpu[1] - selfTotal(&a.m.trace)
	l.addSpans(&a.m.trace, "net")
	l.addWire(&a.m.trace)
	l.emit(r)
	r.note("ops_per_s.traced", rate(b.wins), "1/s")
	r.note("ops_per_s.untraced", rate(refWins), "1/s")
	r.note("window_gets", float64(len(aGets)), "count")
	if !write {
		var late []float64
		for _, s := range a.samples {
			late = append(late, s.lateUs)
		}
		r.note("loadgen.late_us_p99", pctOr0(late, 99), "us")
	}
	r.note("window_s", d.Seconds(), "s")
	return nil
}

// fetchReports reads every benchnode's span report, starting a new window
// when reset is set.
func fetchReports(c *cluster, reset bool) ([]tracert.NodeReport, error) {
	var out []tracert.NodeReport
	for _, n := range c.nodes {
		url := n.report
		if reset {
			url += "?reset=1"
		}
		resp, err := http.Get(url)
		if err != nil {
			return nil, fmt.Errorf("%s report: %w", n.name, err)
		}
		var rep tracert.NodeReport
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s report: %w", n.name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// merged is the cluster-wide sum of the nodes' reports.
type merged struct {
	trace                   tracert.Report
	lookupUs, storeUs, hops obs.HistSnapshot
}

func merge(reps []tracert.NodeReport) *merged {
	m := &merged{trace: tracert.Report{
		Recv: map[string]tracert.Stat{}, Timers: map[string]tracert.Stat{}, Sends: map[string]tracert.Stat{},
		Codec: map[string]tracert.CodecStat{},
	}}
	add := func(dst, src map[string]tracert.Stat) {
		for k, v := range src {
			s := dst[k]
			s.N += v.N
			s.SelfNs += v.SelfNs
			dst[k] = s
		}
	}
	for _, rp := range reps {
		t := &rp.Trace
		add(m.trace.Recv, t.Recv)
		add(m.trace.Timers, t.Timers)
		add(m.trace.Sends, t.Sends)
		for k, v := range t.Codec {
			c := m.trace.Codec[k]
			c.N += v.N
			c.EncodeNs += v.EncodeNs
			c.DecodeNs += v.DecodeNs
			c.Bytes += v.Bytes
			m.trace.Codec[k] = c
		}
		m.trace.DoHold.N += t.DoHold.N
		m.trace.DoHold.SelfNs += t.DoHold.SelfNs
		m.trace.Overhead.N += t.Overhead.N
		m.trace.Overhead.SelfNs += t.Overhead.SelfNs
		m.trace.AwaitUs = append(m.trace.AwaitUs, t.AwaitUs...)
		m.trace.AwaitSlackUs = append(m.trace.AwaitSlackUs, t.AwaitSlackUs...)
		m.trace.DoWaitUs = append(m.trace.DoWaitUs, t.DoWaitUs...)
		m.trace.DoHoldUs = append(m.trace.DoHoldUs, t.DoHoldUs...)
		m.trace.SendUs = append(m.trace.SendUs, t.SendUs...)
		m.lookupUs = mergeHist(m.lookupUs, rp.LookupUs)
		m.storeUs = mergeHist(m.storeUs, rp.StoreUs)
		m.hops = mergeHist(m.hops, rp.LookupHops)
	}
	return m
}

// mergeHist adds two snapshots of histograms with the same bucket grid.
func mergeHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	counts := map[[2]uint64]uint64{}
	for _, s := range []obs.HistSnapshot{a, b} {
		for _, bk := range s.Buckets {
			counts[[2]uint64{bk.Low, bk.High}] += bk.Count
		}
	}
	out := obs.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for k, c := range counts {
		out.Buckets = append(out.Buckets, obs.HistBucket{Low: k[0], High: k[1], Count: c})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Low < out.Buckets[j].Low })
	return out
}

// subHist is a minus b, for two snapshots of one histogram taken in that
// order: the samples recorded between them.
func subHist(a, b obs.HistSnapshot) obs.HistSnapshot {
	earlier := map[[2]uint64]uint64{}
	for _, bk := range b.Buckets {
		earlier[[2]uint64{bk.Low, bk.High}] = bk.Count
	}
	out := obs.HistSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for _, bk := range a.Buckets {
		if c := bk.Count - earlier[[2]uint64{bk.Low, bk.High}]; c > 0 {
			out.Buckets = append(out.Buckets, obs.HistBucket{Low: bk.Low, High: bk.High, Count: c})
		}
	}
	return out
}

// histQuantile is the nearest-rank q-quantile of a snapshot, as the middle
// of the bucket it falls in (0 for an empty one).
func histQuantile(s obs.HistSnapshot, q float64) float64 {
	var total uint64
	for _, b := range s.Buckets {
		total += b.Count
	}
	rank := uint64(q*float64(total) + 0.5)
	rank = max(rank, 1)
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			return float64(b.Low+b.High) / 2
		}
	}
	return 0
}

// addWire adds the socket transport's per-type view: bytes out (from the
// codec replay's mean frame size per type plus the envelope), the share of
// frames that are heartbeats, and the codec cost per type.
func (l layerSet) addWire(rep *tracert.Report) {
	const envelopeBytes = 30
	var frames, heartbeats int64
	for t, s := range rep.Sends {
		if t == "local" {
			continue
		}
		frames += s.N
		if heartbeatTypes[t] {
			heartbeats += s.N
		}
		if c := rep.Codec[t]; c.N > 0 {
			l["net.bytes_out"] += float64(s.N) * (float64(c.Bytes)/float64(c.N) + envelopeBytes)
		}
	}
	if frames > 0 {
		l["net.heartbeat_share"] = float64(heartbeats) / float64(frames)
	}
	for _, t := range codecTypes {
		if c := rep.Codec[t]; c.N > 0 {
			l["codec.encode_ns."+t] = float64(c.EncodeNs) / float64(c.N)
			l["codec.decode_ns."+t] = float64(c.DecodeNs) / float64(c.N)
			l["codec.frame_bytes."+t] = float64(c.Bytes)/float64(c.N) + envelopeBytes
		}
	}
}
