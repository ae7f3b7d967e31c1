package main

import (
	"strings"

	"repro/perfbench/tracert"
)

// The per-layer metrics. Every traced run prints all of them, whichever
// workload it runs: a layer the workload never enters reads 0 (the DES has
// no executor, sockets or HTTP; the kv cluster has no event engine). Message
// types and callbacks are a fixed list so the names stay the same from run
// to run; the rest of each family is summed under ".other".
var (
	// msgTypes are the message types whose handlers are reported one by
	// one: the heartbeats, the lookup and store paths, ring maintenance,
	// membership repair and replication.
	msgTypes = []string{
		"helloMsg", "ackMsg", "lookupReq", "floodReq", "foundMsg", "notFoundMsg",
		"storeReq", "storeAck", "spreadReq", "findSuccReq", "findSuccResp",
		"ringStabQ", "ringStabA", "ringNotify", "sSizeSync", "substituteMsg",
		"replicaPut", "replicaAck", "ownerAnnounce",
	}
	// wireTypes are the message types whose sends are counted one by one:
	// the heaviest on the DES and on the wire.
	wireTypes = []string{
		"helloMsg", "ackMsg", "lookupReq", "floodReq", "foundMsg", "findSuccResp", "storeReq", "replicaPut",
	}
	// codecTypes are the wire types whose codec cost is reported: the
	// frames a GET and a PUT put on the wire, and the largest ones.
	codecTypes = []string{"helloMsg", "lookupReq", "foundMsg", "storeReq", "replicaPut"}
	// callbacks are the timer callbacks reported one by one: heartbeats
	// (which also push replica batches), finger refresh and its
	// completion, operation timeouts, neighbour watchdogs, the health
	// sampler, and the benchmark's own arrival and churn events.
	callbacks = []string{
		"Peer.broadcastHello", "Peer.refreshFingers", "Peer.refreshFingers.func1",
		"Peer.newOp.func1", "Peer.watch.func1", "HealthSampler.sample", "workload",
	}
)

// heartbeatTypes are the failure detector's messages.
var heartbeatTypes = map[string]bool{"helloMsg": true, "ackMsg": true}

// layerUnits lists every per-layer metric with its unit, in print order.
func layerUnits() [][2]string {
	u := [][2]string{
		{"sim.events", "count"}, {"sim.events_per_s", "1/s"}, {"sim.queue_peak", "count"}, {"sim.self_s", "s"},
		{"simnet.msgs", "count"}, {"simnet.bytes", "B"}, {"simnet.send_self_s", "s"},
	}
	for _, t := range append(append([]string(nil), wireTypes...), "other") {
		u = append(u, [2]string{"simnet.msgs." + t, "count"})
	}
	for _, t := range append(append([]string(nil), msgTypes...), "other") {
		u = append(u, [2]string{"core.recv_s." + t, "s"}, [2]string{"core.recv_n." + t, "count"})
	}
	for _, c := range append(append([]string(nil), callbacks...), "other") {
		u = append(u, [2]string{"core.timer_s." + c, "s"})
	}
	u = append(u,
		[2]string{"core.do_s", "s"},
		[2]string{"core.lookup_hops_mean", "hops"}, [2]string{"core.lookup_latency_us_p50", "us"},
		[2]string{"core.store_latency_us_p50", "us"},
		[2]string{"executor.await_us_p50", "us"}, [2]string{"executor.await_slack_us_p50", "us"},
		[2]string{"executor.do_wait_us_p99", "us"}, [2]string{"executor.do_hold_us_p99", "us"},
		[2]string{"net.send_us_p50", "us"}, [2]string{"net.send_self_s", "s"}, [2]string{"net.bytes_out", "B"},
		[2]string{"net.heartbeat_share", "ratio"},
	)
	for _, t := range append(append([]string(nil), wireTypes...), "other") {
		u = append(u, [2]string{"net.frames_out." + t, "count"})
	}
	for _, t := range codecTypes {
		u = append(u, [2]string{"codec.encode_ns." + t, "ns"}, [2]string{"codec.decode_ns." + t, "ns"},
			[2]string{"codec.frame_bytes." + t, "B"})
	}
	u = append(u,
		[2]string{"http.self_us_p50", "us"},
		[2]string{"proc.cpu_s.bootstrap", "s"}, [2]string{"proc.cpu_s.worker", "s"},
		[2]string{"proc.idle_cpu_pct", "%"},
		[2]string{"setup.topology_s", "s"}, [2]string{"setup.population_s", "s"},
		[2]string{"setup.preload_s", "s"}, [2]string{"setup.cluster_boot_s", "s"},
		[2]string{"trace.overhead_pct", "%"}, [2]string{"trace.unaccounted_s", "s"},
	)
	return u
}

// layerSet collects per-layer values; emit reports every name it lacks as
// 0.
type layerSet map[string]float64

// emit moves the set into the report, one metric per name in layerUnits.
func (l layerSet) emit(r *report) {
	for _, nu := range layerUnits() {
		r.set(nu[0], l[nu[0]], nu[1])
	}
	for name := range l {
		if _, ok := r.metrics[name]; !ok {
			r.fail("per-layer metric %s is not in layerUnits", name)
		}
	}
}

// pctOr0 is the p-th percentile of xs, or 0 when there are too few samples
// for it (a layer a workload does not exercise).
func pctOr0(xs []float64, p float64) float64 {
	v, _ := percentile(append([]float64(nil), xs...), p)
	return v
}

// bucket returns name when it is in list, else "other".
func bucket(name string, list []string) string {
	for _, n := range list {
		if n == name {
			return name
		}
	}
	return "other"
}

// callbackName shortens a tracer callback name to a metric-safe one:
// "core.(*Peer).helloTick" becomes "Peer.helloTick". The benchmark's own
// scheduled events are "workload".
func callbackName(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "workload"
	}
	fn = strings.TrimPrefix(fn, "core.")
	return strings.NewReplacer("(*", "", ")", "").Replace(fn)
}

// addSpans adds a trace report's span totals to the set: handler self time
// and count per message type, timer self time per callback, sends per type,
// and the Do work. sendPrefix names the transport: "simnet" or "net".
func (l layerSet) addSpans(rep *tracert.Report, sendPrefix string) {
	for t, s := range rep.Recv {
		b := bucket(t, msgTypes)
		l["core.recv_s."+b] += float64(s.SelfNs) / 1e9
		l["core.recv_n."+b] += float64(s.N)
	}
	for fn, s := range rep.Timers {
		l["core.timer_s."+bucket(callbackName(fn), callbacks)] += float64(s.SelfNs) / 1e9
	}
	l["core.do_s"] += float64(rep.DoHold.SelfNs) / 1e9
	count := "simnet.msgs."
	if sendPrefix == "net" {
		count = "net.frames_out."
	}
	for t, s := range rep.Sends {
		l[sendPrefix+".send_self_s"] += float64(s.SelfNs) / 1e9
		if t == "local" && sendPrefix == "net" {
			continue // self-delivery never reaches a socket
		}
		l[count+bucket(t, wireTypes)] += float64(s.N)
	}
}

// selfTotal is the sum of every span's self time in a report, in seconds:
// the part of the traced interval the tracer accounts for.
func selfTotal(rep *tracert.Report) float64 {
	var ns int64
	for _, m := range []map[string]tracert.Stat{rep.Recv, rep.Timers, rep.Sends} {
		_, s := tracert.Total(m)
		ns += s
	}
	ns += rep.Engine.SelfNs + rep.DoHold.SelfNs + rep.Overhead.SelfNs
	return float64(ns) / 1e9
}
