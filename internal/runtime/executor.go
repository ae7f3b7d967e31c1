package runtime

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Executor is the wall-clock execution core shared by the concurrent
// runtimes (internal/runtime/live and internal/runtime/net). It provides
// the parts of Runtime that do not depend on how messages travel: the
// clock and its timers, the RNG, per-address mailboxes, and the driver
// methods Do, Await and Sleep. A runtime embeds an *Executor and adds only
// its delivery path, handing arriving messages to Post.
//
// The hybrid protocol was written for run-to-completion semantics: a
// handler or timer callback runs alone, and peers share a System, so
// per-node locking is not enough. The executor therefore serializes all
// protocol execution behind one lock, the direct analogue of the DES
// dispatch loop, while keeping everything around it concurrent:
//
//   - each attached address has a mailbox goroutine, so delivery is
//     asynchronous, per-node FIFO, and overlapping across nodes;
//   - timers are time.AfterFunc firings that take the executor lock before
//     running, with a cancelled/fired flag checked under the lock (a
//     stopped timer that already won the race to fire is a no-op);
//   - external callers enter protocol state only through Do and Await.
//
// Every release of the executor lock after protocol work (a handler's
// Recv, a timer callback, a Do) ends a turn: the conditions of pending
// Awaits are re-checked before the lock is released, and each Await whose
// condition now holds is woken at once. Await never polls.
//
// Clock methods, Rand and the mailbox methods must only be called under the
// execution guarantee; Do, Await, Sleep, Post and Shutdown may be called
// from any goroutine.
type Executor struct {
	name    string // prefixes errors and panics ("live", "net")
	start   time.Time
	timeout time.Duration

	mu      sync.Mutex // the executor lock: all protocol execution holds it
	rng     *rand.Rand
	closed  bool
	waiters []*waiter

	// boxes has its own lock so transport goroutines (socket readers,
	// delayed sends) can find a mailbox without waiting on protocol
	// execution. Lock order: mu before bmu.
	bmu   sync.RWMutex
	boxes map[Addr]*mailbox

	done chan struct{}  // closed by Shutdown
	wg   sync.WaitGroup // mailbox goroutines
}

// waiter is one pending Await: done is closed by the turn that first
// observes cond true.
type waiter struct {
	cond func() bool
	done chan struct{}
}

// NewExecutor creates an executor whose RNG is seeded with seed and whose
// Await calls fail after awaitTimeout (30 seconds if not positive). name
// prefixes its errors and panics.
func NewExecutor(name string, seed int64, awaitTimeout time.Duration) *Executor {
	if awaitTimeout <= 0 {
		awaitTimeout = 30 * time.Second
	}
	return &Executor{
		name:    name,
		start:   time.Now(),
		timeout: awaitTimeout,
		rng:     rand.New(rand.NewSource(seed)),
		boxes:   make(map[Addr]*mailbox),
		done:    make(chan struct{}),
	}
}

// unlock ends an executor turn: it wakes every Await whose condition the
// turn made true, then releases the executor lock.
func (e *Executor) unlock() {
	if len(e.waiters) > 0 {
		kept := e.waiters[:0]
		for _, w := range e.waiters {
			if w.cond() {
				close(w.done)
			} else {
				kept = append(kept, w)
			}
		}
		clear(e.waiters[len(kept):])
		e.waiters = kept
	}
	e.mu.Unlock()
}

// --- Clock ------------------------------------------------------------------

// wallTimer is one scheduled firing. Its flags are guarded by the executor
// lock.
type wallTimer struct {
	t         *time.Timer
	fn        func()
	cancelled bool
	fired     bool
}

// Now returns the wall-clock time since the executor was created.
func (e *Executor) Now() Time {
	return Time(time.Since(e.start) / time.Microsecond)
}

// Schedule arms a wall-clock timer. The callback takes the executor lock
// before running, so it has the same isolation as a message handler. After
// Shutdown it returns the zero Handle and arms nothing.
func (e *Executor) Schedule(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("%s: negative delay %v", e.name, d))
	}
	if e.closed {
		return Handle{}
	}
	tm := &wallTimer{fn: fn}
	tm.t = time.AfterFunc(time.Duration(d)*time.Microsecond, func() {
		e.mu.Lock()
		defer e.unlock()
		if tm.cancelled || e.closed {
			return
		}
		tm.fired = true
		tm.fn()
	})
	return MakeHandle(tm, 0)
}

// Unschedule cancels a pending firing. A firing that already ran reports
// false; one whose AfterFunc is waiting for the executor lock is still
// pending, and the cancelled flag makes it a no-op.
func (e *Executor) Unschedule(h Handle) bool {
	tm, ok := h.Impl().(*wallTimer)
	if !ok || tm.cancelled || tm.fired {
		return false
	}
	tm.cancelled = true
	tm.t.Stop()
	return true
}

// Scheduled reports whether the firing is still pending.
func (e *Executor) Scheduled(h Handle) bool {
	tm, ok := h.Impl().(*wallTimer)
	return ok && !tm.cancelled && !tm.fired
}

// Rand returns the executor's RNG (use only under the execution guarantee).
// The RNG is seeded, but goroutine interleaving orders the draws.
func (e *Executor) Rand() RNG { return e.rng }

// Closed reports whether Shutdown has run (use only under the execution
// guarantee).
func (e *Executor) Closed() bool { return e.closed }

// Done returns a channel that Shutdown closes.
func (e *Executor) Done() <-chan struct{} { return e.done }

// --- Mailboxes --------------------------------------------------------------

// mailbox is one attached address: a handler plus its queue. The queue has
// its own lock so a sender holding the executor lock never blocks on a
// mailbox goroutine that is waiting for the executor lock.
type mailbox struct {
	h Handler

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

type envelope struct {
	from Addr
	msg  any
}

// AttachMailbox registers h at a and starts its mailbox goroutine,
// replacing (and closing) any earlier mailbox at a. It reports false, and
// attaches nothing, after Shutdown.
func (e *Executor) AttachMailbox(a Addr, h Handler) bool {
	if e.closed {
		return false
	}
	m := &mailbox{h: h}
	m.cond = sync.NewCond(&m.mu)
	e.bmu.Lock()
	if old, ok := e.boxes[a]; ok {
		old.close()
	}
	e.boxes[a] = m
	e.bmu.Unlock()
	e.wg.Add(1)
	go e.deliverLoop(m)
	return true
}

// DetachMailbox removes a's mailbox; messages queued to it are dropped,
// exactly like packets to a crashed host.
func (e *Executor) DetachMailbox(a Addr) {
	e.bmu.Lock()
	if m, ok := e.boxes[a]; ok {
		m.close()
		delete(e.boxes, a)
	}
	e.bmu.Unlock()
}

// HasMailbox reports whether a is attached here.
func (e *Executor) HasMailbox(a Addr) bool {
	e.bmu.RLock()
	_, ok := e.boxes[a]
	e.bmu.RUnlock()
	return ok
}

// Post queues msg for delivery to to's handler, on a fresh turn of its
// mailbox. A message to an address not attached here is dropped.
func (e *Executor) Post(from, to Addr, msg any) {
	e.bmu.RLock()
	m, ok := e.boxes[to]
	e.bmu.RUnlock()
	if ok {
		m.enqueue(from, msg)
	}
}

// deliverLoop is a mailbox goroutine: pop one envelope, take the executor
// lock, deliver, end the turn, repeat. It never holds the queue lock while
// taking the executor lock, or a sender holding the executor lock would
// deadlock against it.
func (e *Executor) deliverLoop(m *mailbox) {
	defer e.wg.Done()
	for {
		env, ok := m.pop()
		if !ok {
			return
		}
		e.mu.Lock()
		// The address may have been detached, or the executor shut down,
		// between pop and delivery; both close the mailbox.
		if m.open() {
			m.h.Recv(env.from, env.msg)
		}
		e.unlock()
	}
}

// pop blocks until the queue has an envelope or the mailbox closes.
func (m *mailbox) pop() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		return envelope{}, false
	}
	env := m.queue[0]
	m.queue = m.queue[1:]
	return env, true
}

func (m *mailbox) open() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.closed
}

func (m *mailbox) enqueue(from Addr, msg any) {
	m.mu.Lock()
	if !m.closed {
		m.queue = append(m.queue, envelope{from: from, msg: msg})
		m.cond.Signal()
	}
	m.mu.Unlock()
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()
}

// --- Driver -----------------------------------------------------------------

// Do runs fn under the executor lock, serialized against every handler and
// timer callback, as one turn. It is the only way external code may touch
// protocol state.
func (e *Executor) Do(fn func()) {
	e.mu.Lock()
	defer e.unlock()
	fn()
}

// Await returns nil once cond holds. cond is evaluated under the executor
// lock: once on entry, then at the end of each turn until it holds. Await
// fails when its wall-clock timeout passes or the executor shuts down
// first, unless cond holds by then.
func (e *Executor) Await(cond func() bool) error {
	e.mu.Lock()
	if cond() {
		e.mu.Unlock()
		return nil
	}
	w := &waiter{cond: cond, done: make(chan struct{})}
	e.waiters = append(e.waiters, w)
	e.mu.Unlock()

	deadline := time.NewTimer(e.timeout)
	defer deadline.Stop()
	var err error
	select {
	case <-w.done:
		return nil
	case <-deadline.C:
		err = fmt.Errorf("%s: condition not reached within %v", e.name, e.timeout)
	case <-e.done:
		err = fmt.Errorf("%s: runtime closed", e.name)
	}
	// The deadline or Shutdown raced the turn that completes cond: a
	// condition that holds wins.
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, p := range e.waiters {
		if p == w {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			if cond() {
				return nil
			}
			return err
		}
	}
	return nil // a turn woke w after the select chose
}

// Sleep blocks the caller for d of wall-clock time while the runtime keeps
// executing. It must not be called under the execution guarantee.
func (e *Executor) Sleep(d Time) {
	time.Sleep(time.Duration(d) * time.Microsecond)
}

// Shutdown closes the executor: under the lock it sets the closed flag,
// runs stop (the transport's own teardown that must not interleave with
// protocol execution; nil for none), closes every mailbox and wakes every
// pending Await with an error. Pending timer firings become no-ops. It then
// waits for the mailbox goroutines to exit. It reports false, doing
// nothing, if the executor was already closed.
func (e *Executor) Shutdown(stop func()) bool {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return false
	}
	e.closed = true
	if stop != nil {
		stop()
	}
	e.bmu.Lock()
	for a, m := range e.boxes {
		m.close()
		delete(e.boxes, a)
	}
	e.bmu.Unlock()
	close(e.done)
	e.mu.Unlock()
	e.wg.Wait()
	return true
}
