package live

import (
	"sync"
	"testing"
	"time"

	"repro/internal/runtime"
)

// recorder is a test handler that appends every delivery under its own lock.
type recorder struct {
	mu   sync.Mutex
	got  []any
	from []runtime.Addr
}

func (c *recorder) Recv(from runtime.Addr, msg any) {
	c.mu.Lock()
	c.got = append(c.got, msg)
	c.from = append(c.from, from)
	c.mu.Unlock()
}

func (c *recorder) snapshot() []any {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]any(nil), c.got...)
}

// TestDelayedSendSurvivesReattach pins the delivery-time resolution of
// delayed sends: a message in flight to an address that detaches and
// re-attaches before the delay fires must reach the new incarnation. The old
// code captured the *node at send time, so the message died in the closed
// mailbox of the first incarnation even though the address was live again.
func TestDelayedSendSurvivesReattach(t *testing.T) {
	r := New(Config{Delay: 5 * time.Millisecond})
	defer r.Close()

	first, second := &recorder{}, &recorder{}
	const dst runtime.Addr = 7
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, first)
		r.Send(1, dst, 0, "in-flight")
		r.Detach(dst)
		r.Attach(dst, runtime.Endpoint{}, second)
	})

	deadline := time.Now().Add(2 * time.Second)
	for len(second.snapshot()) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("delayed send never reached the re-attached address; first got %v", first.snapshot())
		}
		time.Sleep(time.Millisecond)
	}
	if got := second.snapshot(); len(got) != 1 || got[0] != "in-flight" {
		t.Fatalf("re-attached handler got %v, want [in-flight]", got)
	}
	if got := first.snapshot(); len(got) != 0 {
		t.Fatalf("detached incarnation got %v, want nothing", got)
	}
}

// TestDelayedSendToDetachedDropped: with no re-attach, the firing finds no
// node and the message is dropped silently, like a packet to a dead host.
func TestDelayedSendToDetachedDropped(t *testing.T) {
	r := New(Config{Delay: 2 * time.Millisecond})
	defer r.Close()

	rec := &recorder{}
	const dst runtime.Addr = 3
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, rec)
		r.Send(1, dst, 0, "doomed")
		r.Detach(dst)
	})
	time.Sleep(20 * time.Millisecond)
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("detached address received %v", got)
	}
	var pending int
	r.Do(func() { pending = len(r.delayed) })
	if pending != 0 {
		t.Fatalf("%d delayed sends still in the ledger after firing", pending)
	}
}

// TestCloseCancelsDelayedSends pins Close's accounting of pending delayed
// sends: the ledger drains, nothing is delivered after Close, and a firing
// racing Close observes the closed flag instead of touching freed state.
func TestCloseCancelsDelayedSends(t *testing.T) {
	r := New(Config{Delay: 10 * time.Millisecond})
	rec := &recorder{}
	const dst runtime.Addr = 2
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, rec)
		for i := 0; i < 50; i++ {
			r.Send(1, dst, 0, i)
		}
	})
	var pending int
	r.Do(func() { pending = len(r.delayed) })
	if pending != 50 {
		t.Fatalf("ledger holds %d delayed sends before Close, want 50", pending)
	}
	r.Close()
	r.Do(func() { pending = len(r.delayed) })
	if pending != 0 {
		t.Fatalf("ledger holds %d delayed sends after Close, want 0", pending)
	}
	time.Sleep(30 * time.Millisecond) // past the delay: any stray firing would land here
	if got := rec.snapshot(); len(got) != 0 {
		t.Fatalf("messages delivered after Close: %v", got)
	}
}

// TestDelayedSendCloseRace hammers delayed sends from one goroutine while
// another closes the runtime; the race detector is the assertion.
func TestDelayedSendCloseRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		r := New(Config{Delay: 100 * time.Microsecond})
		rec := &recorder{}
		r.Do(func() { r.Attach(1, runtime.Endpoint{}, rec) })
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Do(func() {
					if !r.Closed() {
						r.Send(2, 1, 0, i)
					}
				})
			}
		}()
		time.Sleep(time.Duration(iter%5) * 50 * time.Microsecond)
		r.Close()
		wg.Wait()
	}
}

// TestMailboxFIFOUnderConcurrentSenders asserts the per-pair FIFO guarantee
// with zero delay: each sender's messages arrive at the shared receiver in
// send order, even with many senders interleaving under the executor lock.
func TestMailboxFIFOUnderConcurrentSenders(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	const (
		senders = 8
		perSend = 200
		dst     = runtime.Addr(100)
	)
	rec := &recorder{}
	r.Do(func() { r.Attach(dst, runtime.Endpoint{}, rec) })

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			from := runtime.Addr(s + 1)
			for i := 0; i < perSend; i++ {
				r.Do(func() { r.Send(from, dst, 0, i) })
			}
		}(s)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for {
		rec.mu.Lock()
		n := len(rec.got)
		rec.mu.Unlock()
		if n == senders*perSend {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages delivered", n, senders*perSend)
		}
		time.Sleep(time.Millisecond)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	next := make(map[runtime.Addr]int)
	for i, m := range rec.got {
		from := rec.from[i]
		seq := m.(int)
		if seq != next[from] {
			t.Fatalf("sender %d: message %d arrived when %d was expected (position %d)", from, seq, next[from], i)
		}
		next[from]++
	}
}

// TestDetachDropsQueuedMessages: with zero delay the message is enqueued into
// the current incarnation's mailbox, so a detach between enqueue and delivery
// drops it — it was in flight when the host crashed — and a re-attached
// incarnation must not see it.
func TestDetachDropsQueuedMessages(t *testing.T) {
	r := New(Config{})
	defer r.Close()

	first, second := &recorder{}, &recorder{}
	const dst runtime.Addr = 9
	r.Do(func() {
		r.Attach(dst, runtime.Endpoint{}, first)
		// The mailbox goroutine cannot deliver while we hold the executor
		// lock, so the detach below is guaranteed to beat delivery.
		r.Send(1, dst, 0, "crashing")
		r.Detach(dst)
		r.Attach(dst, runtime.Endpoint{}, second)
	})
	time.Sleep(10 * time.Millisecond)
	if got := first.snapshot(); len(got) != 0 {
		t.Fatalf("first incarnation got %v after detach", got)
	}
	if got := second.snapshot(); len(got) != 0 {
		t.Fatalf("second incarnation got %v; zero-delay sends bind at send time", got)
	}
}
