package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// One /kv client connection: keep-alive, at most one socket.
type conn struct {
	tr   *http.Transport
	c    *http.Client
	base string
}

func newConn(addr string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{tr: tr, c: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: "http://" + addr}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// op is one /kv request. A GET checks the body against check; a PUT stores
// value.
type op struct {
	put   bool
	key   string
	value []byte
	check func(key string, body []byte) bool
}

// sample is one completed request.
type sample struct {
	put bool
	ok  bool
	ms  float64 // latency; from the due time in an open loop
	// lateUs is how far after its due time an open-loop request was sent.
	lateUs float64
	at     time.Duration // completion, from the start of a closed loop
}

// do issues the request and reports whether its outcome was right: a 200
// and, for a GET, a body the check accepts.
func (c *conn) do(o op) error {
	method, body := http.MethodGet, io.Reader(nil)
	if o.put {
		method, body = http.MethodPut, bytes.NewReader(o.value)
	}
	req, err := http.NewRequest(method, c.base+"/kv/"+o.key, body)
	if err != nil {
		return err
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, o.key, resp.StatusCode, strings.TrimSpace(string(got)))
	}
	if !o.put && !o.check(o.key, got) {
		return fmt.Errorf("GET %s: body %.40q does not carry the key", o.key, got)
	}
	return nil
}

// errLog keeps the first few request errors of a phase for the log.
type errLog struct {
	mu   sync.Mutex
	errs []string
}

func (e *errLog) add(err error) {
	e.mu.Lock()
	if len(e.errs) < 5 {
		e.errs = append(e.errs, err.Error())
	}
	e.mu.Unlock()
}

// window is one tick of a closed loop: the requests that completed in it,
// the CPU seconds the cluster spent, and the share of the host's CPU time
// that the hypervisor gave to other guests (steal).
type window struct {
	samples          []sample
	cpu, secs, steal float64
}

// closedLoop runs one client per connection, each sending its next request
// as soon as the previous one completes, until d has passed. Client i draws
// its requests from gens[i], a seeded stream, so a seed fixes every client's
// request sequence. Every tick it reads the cluster's CPU seconds from cpu
// and the host's steal, and it returns the completed ticks as windows,
// along with every sample (including those that completed after the last
// tick).
func closedLoop(conns []*conn, d, tick time.Duration, gens []func() op, cpu func() (float64, error), el *errLog) ([]sample, []window, error) {
	out := make([][]sample, len(conns))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			for time.Now().Before(end) {
				o := gens[i]()
				t0 := time.Now()
				err := c.do(o)
				out[i] = append(out[i], sample{put: o.put, ok: err == nil, ms: float64(time.Since(t0)) / 1e6, at: time.Since(start)})
				if err != nil {
					el.add(err)
				}
			}
		}(i, c)
	}
	var wins []window
	var bounds []time.Duration // end of each window, from start
	lastCPU, werr := cpu()
	lastSteal, lastTotal := hostSteal()
	last := start
	for next := start.Add(tick); werr == nil && !next.After(end); next = next.Add(tick) {
		time.Sleep(time.Until(next))
		now := time.Now()
		c, err := cpu()
		if err != nil {
			werr = err
			break
		}
		st, tot := hostSteal()
		w := window{cpu: c - lastCPU, secs: now.Sub(last).Seconds()}
		if tot > lastTotal {
			w.steal = float64(st-lastSteal) / float64(tot-lastTotal)
		}
		wins = append(wins, w)
		bounds = append(bounds, now.Sub(start))
		lastCPU, lastSteal, lastTotal, last = c, st, tot, now
	}
	wg.Wait()
	var all []sample
	for _, ss := range out {
		all = append(all, ss...)
	}
	for _, s := range all {
		if i := sort.Search(len(bounds), func(i int) bool { return s.at < bounds[i] }); i < len(wins) {
			wins[i].samples = append(wins[i].samples, s)
		}
	}
	return all, wins, werr
}

// arrival is one open-loop request and when it is due, from the loop's
// start.
type arrival struct {
	at time.Duration
	o  op
}

// poissonSchedule draws arrivals at rate per second over d.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, next func(rng *rand.Rand) op) []arrival {
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			return out
		}
		out = append(out, arrival{at: t, o: next(rng)})
	}
}

// openLoop sends each arrival at its due time on whichever connection is
// free. With every connection busy the request waits, and both its latency
// and its lateness count from the due time, so a stall shows in the
// requests queued behind it.
func openLoop(conns []*conn, sched []arrival, el *errLog) []sample {
	out := make([]sample, len(sched))
	var mu sync.Mutex
	nextIdx := 0
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for {
				mu.Lock()
				i := nextIdx
				nextIdx++
				mu.Unlock()
				if i >= len(sched) {
					return
				}
				due := start.Add(sched[i].at)
				time.Sleep(time.Until(due))
				sent := time.Now()
				err := c.do(sched[i].o)
				out[i] = sample{ok: err == nil, ms: float64(time.Since(due)) / 1e6, lateUs: float64(sent.Sub(due)) / 1e3}
				if err != nil {
					el.add(err)
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// latencies separates the latencies (ms) of successful requests into GETs
// and PUTs. Failed requests carry no latency.
func latencies(samples []sample) (gets, puts []float64) {
	for _, s := range samples {
		switch {
		case !s.ok:
		case s.put:
			puts = append(puts, s.ms)
		default:
			gets = append(gets, s.ms)
		}
	}
	return gets, puts
}
