// Package live is the in-process implementation of runtime.Runtime: real
// goroutines and a wall clock instead of a discrete-event loop. It exists so
// the exact protocol code that reproduces the paper's figures under
// internal/simnet can also run as a real in-process system (cmd/hybridnode):
// same joins, same failure detectors, same lookups, now against a wall clock
// with genuinely concurrent message delivery.
//
// # Execution model
//
// Execution is the shared wall-clock executor's (runtime.Executor): one
// executor lock serializes every handler, timer callback and Do; each
// attached address has a mailbox goroutine; timers are time.AfterFunc
// firings; Await wakes on the turn that completes its condition. This
// package adds only delivery: Send hands the message straight to the
// destination's mailbox, optionally after an artificial Config.Delay.
//
// The guarantees relative to the DES runtime: per-node handler serialization
// still holds (trivially — everything is serialized), message order between a
// pair of nodes is FIFO instead of latency-sorted, timer firing order is real
// scheduler order instead of (time, seq) order, and nothing is deterministic.
// Protocol invariants (ring consistency, tree shape, data ownership) must
// hold under both; the conformance suite in internal/conformance asserts it.
package live

import (
	"time"

	"repro/internal/runtime"
)

// Config tunes the live runtime.
type Config struct {
	// Seed seeds the runtime's RNG. The RNG is reproducible, but overall
	// execution is not: goroutine interleaving orders the draws.
	Seed int64
	// Delay is the artificial one-way delivery delay applied to every
	// Send, modeling a network round trip on the loopback transport.
	// Zero means deliver as fast as the mailbox drains.
	Delay time.Duration
	// AwaitTimeout bounds a single Await call in wall-clock time.
	// Zero means the default of 30 seconds.
	AwaitTimeout time.Duration
}

// Runtime is a live, wall-clock implementation of runtime.Runtime.
//
// Clock, Transport, Rand and NewAddr must only be called under the execution
// guarantee — from inside a handler, a timer callback, or Do. Do, Await,
// Sleep and Close are the external entry points and may be called from any
// goroutine.
type Runtime struct {
	*runtime.Executor
	delay time.Duration
	next  runtime.Addr

	// delayed tracks in-flight Delay sends so Close can cancel them:
	// without the ledger a firing scheduled before Close would deliver
	// into a runtime that has already shut down.
	delayed    map[uint64]*time.Timer
	delayedSeq uint64
}

// serverAddr is the bootstrap address handed to the first System on this
// runtime; NewAddr starts right above it, mirroring the DES runtime.
const serverAddr runtime.Addr = 0

// New creates a live runtime.
func New(cfg Config) *Runtime {
	return &Runtime{
		Executor: runtime.NewExecutor("live", cfg.Seed, cfg.AwaitTimeout),
		delay:    cfg.Delay,
		next:     serverAddr + 1,
		delayed:  make(map[uint64]*time.Timer),
	}
}

// Attach registers a handler and starts its mailbox goroutine. The endpoint
// is recorded for interface compatibility; the loopback transport has no
// physical placement, so Host and Capacity do not shape delivery.
func (r *Runtime) Attach(a runtime.Addr, _ runtime.Endpoint, h runtime.Handler) {
	r.AttachMailbox(a, h)
}

// Detach removes an address; queued messages to it are dropped, exactly
// like packets to a crashed host.
func (r *Runtime) Detach(a runtime.Addr) { r.DetachMailbox(a) }

// Attached reports whether the address has a live handler.
func (r *Runtime) Attached(a runtime.Addr) bool { return r.HasMailbox(a) }

// Send enqueues msg for delivery. Size only matters to transports that model
// serialization delay; the loopback transport ignores it. With cfg.Delay set,
// delivery is deferred by that much wall time, and the destination is
// resolved when the delay fires, not when Send is called: an address that
// detaches and re-attaches while the message is in flight is live again and
// must receive it, exactly as a packet addressed to a rebooted host would
// arrive.
func (r *Runtime) Send(from, to runtime.Addr, size int, msg any) {
	if r.delay <= 0 {
		r.Post(from, to, msg)
		return
	}
	seq := r.delayedSeq
	r.delayedSeq++
	r.delayed[seq] = time.AfterFunc(r.delay, func() {
		// After Close the ledger entry is already gone and Post finds no
		// mailbox, so a firing that raced Close delivers nothing.
		r.Do(func() {
			delete(r.delayed, seq)
			r.Post(from, to, msg)
		})
	})
}

// SendLocal enqueues a self-message; it is delivered like any other, on a
// fresh mailbox turn.
func (r *Runtime) SendLocal(a runtime.Addr, msg any) { r.Post(a, a, msg) }

// NewAddr allocates the next peer address: 1, 2, … — the same sequence the
// DES runtime produces, which the conformance tests rely on to compare runs.
func (r *Runtime) NewAddr() runtime.Addr {
	a := r.next
	r.next++
	return a
}

// ServerAddr returns the bootstrap server's address.
func (r *Runtime) ServerAddr() runtime.Addr { return serverAddr }

// Placement returns nil: the loopback transport has no physical model, so
// the protocol falls back to locality-free landmark and id assignment.
func (r *Runtime) Placement() runtime.Placement { return nil }

// Close shuts the runtime down: every mailbox goroutine exits, pending timer
// firings become no-ops, pending Awaits fail, and every delayed send still
// in flight is cancelled. Close blocks until the mailboxes are gone.
func (r *Runtime) Close() {
	r.Shutdown(func() {
		for seq, t := range r.delayed {
			t.Stop()
			delete(r.delayed, seq)
		}
	})
}

var _ runtime.Runtime = (*Runtime)(nil)
