package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestOpenLoopDueTime checks that an open loop times each request from its
// due time: with one connection and a 20ms service time, requests due 1ms
// apart queue, and both their lateness and their latency grow by the wait.
func TestOpenLoopDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		io.WriteString(w, string(kvValue(strings.TrimPrefix(r.URL.Path, "/kv/"), 0)))
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	var sched []arrival
	for i := 0; i < 3; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * time.Millisecond, o: op{key: kvUniverse[i], check: isPreloaded}})
	}
	var el errLog
	got := openLoop([]*conn{c}, sched, &el)
	if len(el.errs) > 0 {
		t.Fatal(el.errs)
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for i, s := range got {
		// Request i cannot be sent before the i earlier ones are served.
		minLate := ms(time.Duration(i)*service - sched[i].at)
		if !s.ok || s.lateUs/1e3 < minLate || s.ms < s.lateUs/1e3+ms(service) {
			t.Errorf("request %d: ok=%v late %.2fms latency %.2fms; want late >= %.2fms and latency >= late + %v",
				i, s.ok, s.lateUs/1e3, s.ms, minLate, service)
		}
	}
}

// TestFailureCounting checks which outcomes count as failed: a wrong body,
// a non-200 status and a refused connection do; a right answer does not.
func TestFailureCounting(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := strings.TrimPrefix(r.URL.Path, "/kv/")
		switch {
		case r.Method == http.MethodPut && key == "bad":
			http.Error(w, "store did not complete", http.StatusBadGateway)
		case r.Method == http.MethodPut:
		case key == "missing":
			http.Error(w, "key not found", http.StatusNotFound)
		case key == "swapped":
			io.WriteString(w, string(kvValue("other", 0)))
		default:
			io.WriteString(w, string(kvValue(key, 7)))
		}
	}))
	defer srv.Close()
	c := newConn(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	dead := newConn("127.0.0.1:1")
	defer dead.close()

	cases := []struct {
		c  *conn
		o  op
		ok bool
	}{
		{c, op{key: "a", check: carriesKey}, true},
		{c, op{key: "a", check: isPreloaded}, false}, // gen 7, not the preload
		{c, op{key: "swapped", check: carriesKey}, false},
		{c, op{key: "missing", check: carriesKey}, false},
		{c, op{put: true, key: "a", value: kvValue("a", 1)}, true},
		{c, op{put: true, key: "bad", value: kvValue("bad", 1)}, false},
		{dead, op{key: "a", check: carriesKey}, false},
	}
	var samples []sample
	for i, tc := range cases {
		err := tc.c.do(tc.o)
		if (err == nil) != tc.ok {
			t.Errorf("case %d: err = %v, want ok=%v", i, err, tc.ok)
		}
		samples = append(samples, sample{put: tc.o.put, ok: err == nil, ms: 1})
	}
	var tl tally
	tl.count(samples)
	gets, puts := latencies(samples)
	if tl.attempted != 7 || tl.failed != 5 || len(gets) != 1 || len(puts) != 1 {
		t.Errorf("tally %+v, %d gets, %d puts; want 7 attempted, 5 failed, 1 and 1 latencies", tl, len(gets), len(puts))
	}
}
