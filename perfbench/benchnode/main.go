// Command benchnode is cmd/hybridnode's multi-process node with the
// protocol's runtime wrapped in the benchmark's timing decorator. It builds
// the same stack with the same settings (rnet.New, core.NewSystem or
// NewPeerSystem, MarkPartial, SetMetrics, a health sampler and
// introspect.Start), joins its peers, and then serves until SIGTERM. A
// second listener (-report) answers GET /report with the decorator's spans
// and the protocol's latency histograms as JSON; ?reset=1 starts a new
// measurement window.
//
// Each process joins 8 peers: the bootstrap (-role t) only t-peers, a
// worker a mix at p_s=0.6, the cluster the benchmark's kv workloads boot.
//
//	benchnode -addr 127.0.0.1:0 -http 127.0.0.1:0 -report 127.0.0.1:0 -role t -k 1
//	benchnode -addr 127.0.0.1:0 -bootstrap HOST:PORT -http 127.0.0.1:0 -report 127.0.0.1:0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/introspect"
	"repro/internal/obs"
	"repro/internal/runtime"
	rnet "repro/internal/runtime/net"
	"repro/perfbench/tracert"
)

// peers is how many peers each process joins.
const peers = 8

func main() { os.Exit(run()) }

func run() int {
	var (
		seed      = flag.Int64("seed", 1, "RNG seed")
		httpAddr  = flag.String("http", "127.0.0.1:0", "introspection and /kv listen address")
		reportAt  = flag.String("report", "127.0.0.1:0", "listen address of the span report")
		addr      = flag.String("addr", "127.0.0.1:0", "TCP endpoint to listen on")
		bootstrap = flag.String("bootstrap", "", "the cluster bootstrap's endpoint; empty makes this process the bootstrap")
		replK     = flag.Int("k", 1, "replication factor")
		roleFlag  = flag.String("role", "", "\"t\" makes every peer this process joins a t-peer")
	)
	flag.Parse()
	var forceRole *core.Role
	switch *roleFlag {
	case "":
	case "t":
		r := core.TPeer
		forceRole = &r
	default:
		fmt.Fprintf(os.Stderr, "benchnode: -role %q must be \"t\" or empty\n", *roleFlag)
		return 2
	}

	// cmd/hybridnode's wall-clock protocol settings and default p_s and δ.
	cfg := core.DefaultConfig()
	cfg.Ps = 0.6
	cfg.Delta = 3
	cfg.HelloEvery = 100 * runtime.Millisecond
	cfg.HelloTimeout = 400 * runtime.Millisecond
	cfg.SuppressTimeout = 50 * runtime.Millisecond
	cfg.LookupTimeout = 3 * runtime.Second
	cfg.JoinTimeout = 3 * runtime.Second
	cfg.FingerRefreshEvery = 250 * runtime.Millisecond
	cfg.ReplicationK = *replK

	nrt, err := rnet.New(rnet.Config{
		Listen:       *addr,
		Bootstrap:    *bootstrap,
		Messages:     core.WireMessages(),
		Seed:         *seed,
		AwaitTimeout: 60 * time.Second,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	defer nrt.Close()
	codec, err := rnet.NewCodec(core.WireMessages()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	rt := tracert.New(nrt, false)
	rt.T.SetCodec(codec)
	role := "worker"
	if nrt.IsBootstrap() {
		role = "bootstrap"
	}
	fmt.Printf("socket transport: %s node at %s\n", role, nrt.Endpoint())

	var sys *core.System
	if *bootstrap != "" {
		sys, err = core.NewPeerSystem(rt, cfg)
	} else {
		sys, err = core.NewSystem(rt, cfg, 0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	sys.MarkPartial()
	reg := obs.NewRegistry()
	tr := obs.NewTracer(0)
	sys.SetMetrics(reg)
	sys.SetTracer(tr)
	sampler := core.NewHealthSampler(sys, reg, cfg.HelloEvery)
	rt.Do(sampler.Start)
	srv, err := introspect.Start(introspect.Config{Addr: *httpAddr, Sys: sys, Reg: reg, Tracer: tr, Sampler: sampler})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	defer srv.Close()
	fmt.Printf("introspection: http://%s/{metrics,healthz,ring,trace,kv}\n", srv.Addr())

	ln, err := net.Listen("tcp", *reportAt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	rsrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rep tracert.NodeReport
		// The inner runtime's Do: the decorated one would open a span.
		nrt.Do(func() {
			rep.Trace = rt.T.Report()
			if r.URL.Query().Get("reset") == "1" {
				rt.T.Reset()
			}
		})
		rep.LookupUs = reg.Histogram("lookup.latency_us").Snapshot()
		rep.StoreUs = reg.Histogram("store.latency_us").Snapshot()
		rep.LookupHops = reg.Histogram("lookup.hops").Snapshot()
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchnode: report:", err)
		}
	})}
	go rsrv.Serve(ln) //nolint:errcheck // ends with Close below
	defer rsrv.Close()
	fmt.Printf("benchtrace: http://%s/report\n", ln.Addr())

	if _, _, err := sys.BuildPopulation(core.PopulationOpts{N: peers, ForceRole: forceRole}); err != nil {
		fmt.Fprintln(os.Stderr, "benchnode:", err)
		return 1
	}
	sys.Settle(5 * cfg.HelloEvery)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var h core.HealthScore
		rt.Do(func() { h = sys.HealthScore() })
		if h.Healthy() {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "benchnode: audit after build: %+v\n", h)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	fmt.Println("lingering until SIGTERM...")
	<-sigCh
	signal.Stop(sigCh)
	return 0
}
