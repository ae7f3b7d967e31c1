package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nodeBoot bounds how long one node may take to join its peers.
const nodeBoot = 60 * time.Second

// node is one cluster process.
type node struct {
	name    string
	cmd     *exec.Cmd
	exited  chan struct{}
	logPath string
	// Endpoints the process printed: its cluster transport, its /kv server
	// and, for benchnode, its span report.
	tcp, http, report string
}

// cluster is a bootstrap and a worker process on loopback. Every process is
// stopped by stop, which every exit path of a workload defers; the kernel
// also kills them if the benchmark itself dies.
type cluster struct {
	dir   string
	nodes []*node
}

// running holds every cluster not yet stopped, for stopAll.
var running struct {
	sync.Mutex
	set map[*cluster]bool
}

// stopAll stops every running cluster; the benchmark calls it when it is
// interrupted.
func stopAll() {
	running.Lock()
	cs := make([]*cluster, 0, len(running.set))
	for c := range running.set {
		cs = append(cs, c)
	}
	running.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// clusterSpec describes the cluster a workload boots.
type clusterSpec struct {
	bin    string // hybridnode, or benchnode for a traced run
	k      int    // replication factor
	seed   int64
	traced bool
}

// binDir is where run.sh puts the node binaries: next to this one.
func binDir() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	return filepath.Dir(exe), nil
}

// startCluster boots the bootstrap (8 t-peers, so replica chains always
// have successors) and then the worker (8 peers at p_s=0.6), each once it
// has joined every peer and passed its health audit. Ports are picked by
// the kernel and read back from each process's output.
func startCluster(spec clusterSpec, dir string) (*cluster, error) {
	c := &cluster{dir: dir}
	running.Lock()
	if running.set == nil {
		running.set = make(map[*cluster]bool)
	}
	running.set[c] = true
	running.Unlock()
	bin, err := binDir()
	if err != nil {
		return c, err
	}
	common := []string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0", "-k", strconv.Itoa(spec.k)}
	if spec.traced {
		common = append(common, "-report", "127.0.0.1:0")
	} else {
		// hybridnode's own store, lookup and crash phases are off: the
		// benchmark's requests are the only load. benchnode fixes the peer
		// count and p_s itself.
		common = append(common, "-n", "8", "-ps", "0.6", "-items", "0", "-lookups", "0", "-crash", "0", "-linger", "1h")
	}
	boot, err := c.start(filepath.Join(bin, spec.bin), "bootstrap",
		append([]string{"-role", "t", "-seed", strconv.FormatInt(spec.seed, 10)}, common...))
	if err != nil {
		return c, err
	}
	_, err = c.start(filepath.Join(bin, spec.bin), "worker",
		append([]string{"-bootstrap", boot.tcp, "-seed", strconv.FormatInt(spec.seed+1, 10)}, common...))
	return c, err
}

// start launches one process and waits until it reports that it is serving.
func (c *cluster) start(path, name string, args []string) (*node, error) {
	n := &node{name: name, exited: make(chan struct{}), logPath: filepath.Join(c.dir, name+".log")}
	log, err := os.Create(n.logPath)
	if err != nil {
		return nil, err
	}
	defer log.Close()
	n.cmd = exec.Command(path, args...)
	n.cmd.Stdout, n.cmd.Stderr = log, log
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := n.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running.Lock()
	c.nodes = append(c.nodes, n)
	running.Unlock()
	go func() {
		n.cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(n.exited)
	}()
	deadline := time.Now().Add(nodeBoot)
	for {
		if done, err := n.scanLog(); err != nil || done {
			return n, err
		}
		select {
		case <-n.exited:
			return n, fmt.Errorf("%s exited during boot (%v); log in %s", name, n.cmd.ProcessState, n.logPath)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return n, fmt.Errorf("%s not serving after %v; log in %s", name, nodeBoot, n.logPath)
		}
	}
}

// scanLog reads the endpoints a node printed and reports whether it has
// reached its serving phase (the "lingering" line).
func (n *node) scanLog() (bool, error) {
	f, err := os.Open(n.logPath)
	if err != nil {
		return false, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "socket transport: "):
			n.tcp = line[strings.LastIndex(line, " ")+1:]
		case strings.HasPrefix(line, "introspection: http://"):
			n.http = strings.SplitN(strings.TrimPrefix(line, "introspection: http://"), "/", 2)[0]
		case strings.HasPrefix(line, "benchtrace: "):
			n.report = strings.TrimPrefix(line, "benchtrace: ")
		case strings.HasPrefix(line, "lingering"):
			if n.tcp == "" || n.http == "" {
				return false, fmt.Errorf("%s is serving without printing its endpoints; log in %s", n.name, n.logPath)
			}
			return true, nil
		}
	}
	return false, sc.Err()
}

// stop asks every process to exit, kills any that has not within a few
// seconds, and waits for all of them.
func (c *cluster) stop() {
	running.Lock()
	nodes := c.nodes
	c.nodes = nil
	delete(running.set, c)
	running.Unlock()
	for _, n := range nodes {
		n.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	}
	for _, n := range nodes {
		select {
		case <-n.exited:
		case <-time.After(5 * time.Second):
			n.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile
			<-n.exited
		}
	}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procStat reads a process's CPU seconds (user+system) and resident set in
// bytes from /proc.
func procStat(pid int) (cpuS float64, rss int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+2:]))
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	pages, err3 := strconv.ParseInt(f[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return float64(utime+stime) / clockTicks, pages * int64(os.Getpagesize()), nil
}

// usage is the CPU seconds of each node and their summed resident set.
type usage struct {
	cpu []float64
	rss int64
}

func (c *cluster) usage() (usage, error) {
	var u usage
	for _, n := range c.nodes {
		cpu, rss, err := procStat(n.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.cpu = append(u.cpu, cpu)
		u.rss += rss
	}
	return u, nil
}

// cpu is the cluster's CPU seconds so far, summed over its processes.
func (c *cluster) cpu() (float64, error) {
	u, err := c.usage()
	total := 0.0
	for _, x := range u.cpu {
		total += x
	}
	return total, err
}

// cpuSince is the CPU seconds each node spent since u0, and their sum.
func (c *cluster) cpuSince(u0 usage) ([]float64, float64, error) {
	u, err := c.usage()
	if err != nil {
		return nil, 0, err
	}
	d := make([]float64, len(u.cpu))
	total := 0.0
	for i := range d {
		d[i] = u.cpu[i] - u0.cpu[i]
		total += d[i]
	}
	return d, total, nil
}
