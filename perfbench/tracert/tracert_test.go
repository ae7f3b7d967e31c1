package tracert

import (
	"strings"
	"testing"

	"repro/internal/runtime"
)

// fakeRT is a runtime whose every call advances a fake clock by a fixed
// cost, so span arithmetic can be checked exactly.
type fakeRT struct {
	runtime.Runtime
	clock    *int64
	sendCost int64
	handlers map[runtime.Addr]runtime.Handler
	timers   []func()
}

func (f *fakeRT) Attach(a runtime.Addr, _ runtime.Endpoint, h runtime.Handler) { f.handlers[a] = h }
func (f *fakeRT) Send(_, _ runtime.Addr, _ int, _ any)                         { *f.clock += f.sendCost }
func (f *fakeRT) Schedule(_ runtime.Time, fn func()) runtime.Handle {
	f.timers = append(f.timers, fn)
	return runtime.Handle{}
}
func (f *fakeRT) Unschedule(runtime.Handle) bool { return false }
func (f *fakeRT) Do(fn func())                   { fn() }
func (f *fakeRT) Sleep(runtime.Time) {
	for len(f.timers) > 0 {
		fn := f.timers[0]
		f.timers = f.timers[1:]
		fn()
	}
}

type pingMsg struct{}

func newFake(serial bool) (*Runtime, *fakeRT) {
	var clock int64
	f := &fakeRT{clock: &clock, sendCost: 3, handlers: make(map[runtime.Addr]runtime.Handler)}
	r := New(f, serial)
	r.T.clock = func() int64 { return clock }
	return r, f
}

// TestSelfTimeNested checks that a span's self time excludes the spans
// nested inside it, at every level: engine loop -> timer -> handler -> send.
func TestSelfTimeNested(t *testing.T) {
	r, f := newFake(true)
	r.Attach(1, runtime.Endpoint{}, runtime.HandlerFunc(func(runtime.Addr, any) {
		*f.clock += 10
		r.Send(1, 2, 0, pingMsg{}) // 3
		r.Send(1, 2, 0, pingMsg{}) // 3
		*f.clock += 2
	}))
	r.Schedule(0, func() {
		*f.clock += 5
		f.handlers[1].Recv(0, pingMsg{}) // 18 in total
		*f.clock += 1
	})
	// The engine loop's own work before and after the timer.
	r.T.begin(&r.T.engine)
	*f.clock += 7
	f.Sleep(0)
	*f.clock += 4
	r.T.end()

	rep := r.T.Report()
	if got := rep.Sends["pingMsg"]; got.N != 2 || got.SelfNs != 6 {
		t.Errorf("send stat = %+v, want 2 spans, 6ns self", got)
	}
	if got := rep.Recv["pingMsg"]; got.N != 1 || got.SelfNs != 12 {
		t.Errorf("recv stat = %+v, want 1 span, 12ns self", got)
	}
	var timer Stat
	for name, s := range rep.Timers {
		if strings.Contains(name, "TestSelfTimeNested") {
			timer = s
		}
	}
	if timer.N != 1 || timer.SelfNs != 6 {
		t.Errorf("timer stat = %+v (all: %v), want 1 span, 6ns self", timer, rep.Timers)
	}
	if rep.Engine.N != 1 || rep.Engine.SelfNs != 11 {
		t.Errorf("engine stat = %+v, want 1 span, 11ns self", rep.Engine)
	}
	// Self times partition the engine span exactly.
	total := rep.Engine.SelfNs + timer.SelfNs + rep.Recv["pingMsg"].SelfNs + rep.Sends["pingMsg"].SelfNs
	if total != *f.clock {
		t.Errorf("self times sum to %d, wall %d", total, *f.clock)
	}
}

// TestCodecReplayIsOverhead checks that a sampled codec replay is charged to
// the tracer's overhead, not to the send or its caller.
func TestCodecReplayIsOverhead(t *testing.T) {
	r, f := newFake(true)
	r.T.SetCodec(slowCodec{f.clock})
	r.Do(func() {
		*f.clock += 1
		r.Send(1, 2, 0, pingMsg{}) // 3 + a 100ns replay
	})
	rep := r.T.Report()
	if rep.DoHold.SelfNs != 1 || rep.Sends["pingMsg"].SelfNs != 3 || rep.Overhead.SelfNs != 100 {
		t.Errorf("do %+v send %+v overhead %+v, want 1/3/100ns", rep.DoHold, rep.Sends["pingMsg"], rep.Overhead)
	}
	if c := rep.Codec["pingMsg"]; c.N != 1 || c.EncodeNs != 60 || c.DecodeNs != 40 || c.Bytes != 4 {
		t.Errorf("codec stat = %+v", c)
	}
}

type slowCodec struct{ clock *int64 }

func (c slowCodec) Encode(any) (uint16, []byte, error) {
	*c.clock += 60
	return 1, []byte{1, 2, 3, 4}, nil
}
func (c slowCodec) Decode(uint16, []byte) (any, error) {
	*c.clock += 40
	return pingMsg{}, nil
}

func namedCallback() {}

// TestCallbackNames guards the layout callbackName reads: the expiry thunks
// of runtime.Timer and runtime.Ticker must resolve to the function they run.
func TestCallbackNames(t *testing.T) {
	r, f := newFake(true)
	runtime.NewTicker(r, runtime.Second, namedCallback).Start()
	runtime.NewTimer(r, runtime.Second, namedCallback).Start()
	r.Schedule(0, namedCallback)
	if len(f.timers) != 3 {
		t.Fatalf("%d timers scheduled, want 3", len(f.timers))
	}
	r.T.stack = nil
	for _, fn := range f.timers {
		fn()
	}
	rep := r.T.Report()
	if got := rep.Timers["tracert.namedCallback"]; got.N != 3 {
		t.Errorf("timers = %v, want 3 firings of tracert.namedCallback", rep.Timers)
	}
}

// TestAwaitSlack checks the concurrent-runtime Await accounting: the slack
// is the part of the wait after a protocol span saw the condition hold.
func TestAwaitSlack(t *testing.T) {
	r, f := newFake(false)
	done := false
	r.Attach(1, runtime.Endpoint{}, runtime.HandlerFunc(func(runtime.Addr, any) {
		*f.clock += 5
		done = true
	}))
	aw := &awaitInner{fakeRT: f, poll: func() {
		*f.clock += 20 // the op is in flight
		f.handlers[1].Recv(0, pingMsg{})
		*f.clock += 7 // the poll has not noticed yet
	}}
	r.Runtime = aw
	if err := r.Await(func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	rep := r.T.Report()
	if len(rep.AwaitUs) != 1 || rep.AwaitUs[0] != 32e-3 {
		t.Errorf("await spans %v, want [0.032]", rep.AwaitUs)
	}
	if len(rep.AwaitSlackUs) != 1 || rep.AwaitSlackUs[0] != 7e-3 {
		t.Errorf("await slack %v, want [0.007]", rep.AwaitSlackUs)
	}
}

type awaitInner struct {
	*fakeRT
	poll func()
}

func (a *awaitInner) Await(cond func() bool) error {
	for !cond() {
		a.poll()
	}
	return nil
}
