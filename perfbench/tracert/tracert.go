// Package tracert is a timing decorator around runtime.Runtime. It measures
// the protocol's layers from outside: every call the protocol makes into its
// runtime (Send, Schedule, Do, Await, Sleep) and every call the runtime
// makes back into the protocol (a handler's Recv, a timer callback) becomes
// a span. A span's self time is its duration minus the time covered by the
// spans nested inside it, so a Send issued from a handler is charged to the
// transport, not to the handler.
//
// Protocol execution is serialized by the runtime (the event loop on the
// discrete-event runtime, the executor lock on the socket runtime), so the
// span stack needs no lock of its own. The only calls that arrive from
// other goroutines are Do and Await, whose own timings go through mu.
package tracert

import (
	"reflect"
	rt "runtime"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/runtime"
)

// Stat accumulates the spans of one name.
type Stat struct {
	N      int64 `json:"n"`
	SelfNs int64 `json:"self_ns"`
}

// CodecStat accumulates replays of sampled messages through a standalone
// codec.
type CodecStat struct {
	N        int64 `json:"n"`
	EncodeNs int64 `json:"encode_ns"`
	DecodeNs int64 `json:"decode_ns"`
	Bytes    int64 `json:"bytes"`
}

// Codec is the wire codec the tracer replays sampled messages through
// (internal/runtime/net's Codec satisfies it).
type Codec interface {
	Encode(msg any) (uint16, []byte, error)
	Decode(code uint16, payload []byte) (any, error)
}

// Report is a snapshot of everything the tracer measured.
type Report struct {
	// Recv, Timers and Sends are keyed by message type or callback name.
	Recv   map[string]Stat `json:"recv"`
	Timers map[string]Stat `json:"timers"`
	Sends  map[string]Stat `json:"sends"`
	// Engine is Sleep and Await on the discrete-event runtime, where the
	// caller's goroutine runs the event loop: its self time is the engine's.
	Engine Stat `json:"engine"`
	// DoHold is the protocol work run through Do, minus its sends.
	DoHold Stat `json:"do_hold"`
	// Overhead is the tracer's own codec replay, kept out of every parent.
	Overhead  Stat                 `json:"overhead"`
	Codec     map[string]CodecStat `json:"codec"`
	QueuePeak int                  `json:"queue_peak"`
	// Per-call samples in microseconds, recorded on concurrent runtimes
	// only: Await spans, the part of each Await after its operation
	// completed, Do's wait for and hold of the executor, and Send.
	AwaitUs      []float64 `json:"await_us"`
	AwaitSlackUs []float64 `json:"await_slack_us"`
	DoWaitUs     []float64 `json:"do_wait_us"`
	DoHoldUs     []float64 `json:"do_hold_us"`
	SendUs       []float64 `json:"send_us"`
}

// NodeReport is what a traced cluster node reports: its spans, plus the
// lookup and store latency (µs) and lookup hops the protocol recorded since
// the node started.
type NodeReport struct {
	Trace      Report           `json:"trace"`
	LookupUs   obs.HistSnapshot `json:"lookup_us"`
	StoreUs    obs.HistSnapshot `json:"store_us"`
	LookupHops obs.HistSnapshot `json:"lookup_hops"`
}

// codecSampleEvery is the per-type sampling stride of codec replays: enough
// samples for a stable per-type mean without doubling the encode work.
const codecSampleEvery = 8

type frame struct {
	start, child int64
	stat         *Stat
}

// Tracer holds the spans of one runtime. Create it with New.
type Tracer struct {
	clock  func() int64 // monotonic nanoseconds
	serial bool

	// Touched only under the runtime's execution guarantee.
	stack    []frame
	recv     map[string]*Stat
	timers   map[string]*Stat
	sends    map[string]*Stat
	engine   Stat
	doHold   Stat
	overhead Stat
	codec    Codec
	codecs   map[string]*CodecStat
	typeName map[reflect.Type]string
	cbName   map[uintptr]callback
	sendUs   []float64
	pending  func() int
	peak     int

	mu           sync.Mutex
	awaits       []*awaitRec
	awaitUs      []float64
	awaitSlackUs []float64
	doWaitUs     []float64
	doHoldUs     []float64
}

type callback struct {
	name  string
	thunk bool // a Timer or Ticker expiry thunk: name what it wraps
}

type awaitRec struct {
	cond   func() bool
	doneAt int64 // -1 until a protocol span observed cond true
}

// Runtime is the decorated runtime. It forwards every call to the wrapped
// runtime and records spans into its Tracer.
type Runtime struct {
	runtime.Runtime
	T *Tracer
}

// New wraps inner. serial says the runtime executes handlers on the
// goroutine that calls Sleep or Await (the discrete-event runtime); on a
// concurrent runtime Do and Await are timed per call instead.
func New(inner runtime.Runtime, serial bool) *Runtime {
	base := time.Now()
	t := &Tracer{
		clock:    func() int64 { return int64(time.Since(base)) },
		serial:   serial,
		typeName: make(map[reflect.Type]string),
		cbName:   make(map[uintptr]callback),
	}
	t.reset()
	return &Runtime{Runtime: inner, T: t}
}

// SetCodec makes every codecSampleEvery-th Send of each type replay its
// message through c, outside every span.
func (t *Tracer) SetCodec(c Codec) { t.codec = c }

// SetPending installs a probe of the event queue's length, sampled at the
// start of every protocol span for the queue peak.
func (t *Tracer) SetPending(f func() int) { t.pending = f }

func (t *Tracer) now() int64 { return t.clock() }

func (t *Tracer) begin(s *Stat) {
	if len(t.stack) == 0 && t.pending != nil {
		if n := t.pending(); n > t.peak {
			t.peak = n
		}
	}
	t.stack = append(t.stack, frame{start: t.now(), stat: s})
}

// end closes the innermost span and returns its end time.
func (t *Tracer) end() int64 {
	now := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := now - f.start
	f.stat.N++
	f.stat.SelfNs += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	} else if !t.serial {
		t.observeAwaits(now)
	}
	return now
}

// observeAwaits stamps the completion time of every pending Await whose
// condition now holds. It runs after each outermost protocol span, under
// the execution guarantee the conditions need.
func (t *Tracer) observeAwaits(now int64) {
	t.mu.Lock()
	for _, a := range t.awaits {
		if a.doneAt < 0 && a.cond() {
			a.doneAt = now
		}
	}
	t.mu.Unlock()
}

func statOf(m map[string]*Stat, name string) *Stat {
	s := m[name]
	if s == nil {
		s = &Stat{}
		m[name] = s
	}
	return s
}

// msgName is the bare type name of a message ("helloMsg").
func (t *Tracer) msgName(msg any) string {
	ty := reflect.TypeOf(msg)
	n, ok := t.typeName[ty]
	if !ok {
		for ty.Kind() == reflect.Pointer {
			ty = ty.Elem()
		}
		n = ty.Name()
		t.typeName[reflect.TypeOf(msg)] = n
	}
	return n
}

// timerLayoutFuncOffset is where runtime.Timer and runtime.Ticker keep their
// callback: after a Clock interface (two words) and a Time (one word). The
// tracer reads it to name a timer by what it runs rather than by the thunk
// that NewTimer and NewTicker bind; TestCallbackNames guards the layout.
const timerLayoutFuncOffset = 3 * unsafe.Sizeof(uintptr(0))

// callbackName names a scheduled callback by its function. The expiry
// thunks of runtime.Timer and runtime.Ticker are seen through to the
// protocol function they wrap.
func (t *Tracer) callbackName(fn func()) string {
	pc := reflect.ValueOf(fn).Pointer()
	c, ok := t.cbName[pc]
	if !ok {
		c.name = funcName(pc)
		if f := rt.FuncForPC(pc); f != nil {
			// The only closures in timer.go are the thunks; matching on
			// the file also catches them inlined into a caller.
			file, _ := f.FileLine(f.Entry())
			c.thunk = strings.HasSuffix(file, "internal/runtime/timer.go")
		}
		t.cbName[pc] = c
	}
	if !c.thunk {
		return c.name
	}
	// The thunk closure is {code pointer, captured *Timer or *Ticker}.
	closure := *(*unsafe.Pointer)(unsafe.Pointer(&fn))
	owner := *(*unsafe.Pointer)(unsafe.Add(closure, unsafe.Sizeof(uintptr(0))))
	inner := *(*func())(unsafe.Add(owner, timerLayoutFuncOffset))
	if inner == nil {
		return c.name
	}
	return t.callbackName(inner)
}

// funcName renders a function's name without the module's import path.
func funcName(pc uintptr) string {
	f := rt.FuncForPC(pc)
	if f == nil {
		return "unknown"
	}
	n := f.Name()
	if i := strings.LastIndex(n, "/"); i >= 0 {
		n = n[i+1:]
	}
	return strings.TrimSuffix(n, "-fm")
}

type handler struct {
	t *Tracer
	h runtime.Handler
}

func (w handler) Recv(from runtime.Addr, msg any) {
	w.t.begin(statOf(w.t.recv, w.t.msgName(msg)))
	w.h.Recv(from, msg)
	w.t.end()
}

// Attach registers a handler whose every Recv is a span named after the
// message type.
func (r *Runtime) Attach(a runtime.Addr, ep runtime.Endpoint, h runtime.Handler) {
	r.Runtime.Attach(a, ep, handler{t: r.T, h: h})
}

// Schedule schedules fn so that its run is a span named after it.
func (r *Runtime) Schedule(d runtime.Time, fn func()) runtime.Handle {
	t := r.T
	name := t.callbackName(fn)
	return r.Runtime.Schedule(d, func() {
		t.begin(statOf(t.timers, name))
		fn()
		t.end()
	})
}

// Send times the transport's Send.
func (r *Runtime) Send(from, to runtime.Addr, size int, msg any) {
	t := r.T
	name := t.msgName(msg)
	s := statOf(t.sends, name)
	t.begin(s)
	start := t.stack[len(t.stack)-1].start
	r.Runtime.Send(from, to, size, msg)
	end := t.end()
	if !t.serial {
		t.sendUs = append(t.sendUs, float64(end-start)/1e3)
	}
	if t.codec != nil && s.N%codecSampleEvery == 1 {
		t.replay(name, msg)
	}
}

// SendLocal times the transport's self-delivery.
func (r *Runtime) SendLocal(a runtime.Addr, msg any) {
	t := r.T
	t.begin(statOf(t.sends, "local"))
	r.Runtime.SendLocal(a, msg)
	t.end()
}

// replay encodes and decodes msg through the standalone codec inside an
// overhead span, so neither the caller nor the transport is charged.
func (t *Tracer) replay(name string, msg any) {
	t.begin(&t.overhead)
	c := t.codecs[name]
	if c == nil {
		c = &CodecStat{}
		t.codecs[name] = c
	}
	t0 := t.now()
	code, payload, err := t.codec.Encode(msg)
	t1 := t.now()
	if err == nil {
		if _, err := t.codec.Decode(code, payload); err == nil {
			c.N++
			c.EncodeNs += t1 - t0
			c.DecodeNs += t.now() - t1
			c.Bytes += int64(len(payload))
		}
	}
	t.end()
}

// Do times the wait for the execution guarantee and the work done under it.
func (r *Runtime) Do(fn func()) {
	t := r.T
	called := t.now()
	r.Runtime.Do(func() {
		t.begin(&t.doHold)
		in := t.stack[len(t.stack)-1].start
		fn()
		out := t.end()
		if !t.serial {
			t.mu.Lock()
			t.doWaitUs = append(t.doWaitUs, float64(in-called)/1e3)
			t.doHoldUs = append(t.doHoldUs, float64(out-in)/1e3)
			t.mu.Unlock()
		}
	})
}

// Await times the wait for cond. On the discrete-event runtime it is a span
// of the event engine; elsewhere it records the span and its slack, the
// part after the awaited operation completed.
func (r *Runtime) Await(cond func() bool) error {
	t := r.T
	if t.serial {
		t.begin(&t.engine)
		err := r.Runtime.Await(cond)
		t.end()
		return err
	}
	a := &awaitRec{cond: cond, doneAt: -1}
	t.mu.Lock()
	t.awaits = append(t.awaits, a)
	t.mu.Unlock()
	start := t.now()
	err := r.Runtime.Await(cond)
	end := t.now()
	t.mu.Lock()
	for i, p := range t.awaits {
		if p == a {
			t.awaits = append(t.awaits[:i], t.awaits[i+1:]...)
			break
		}
	}
	done := a.doneAt
	if done < start {
		// Completed before the wait began: all of it was slack.
		done = start
	}
	t.awaitUs = append(t.awaitUs, float64(end-start)/1e3)
	t.awaitSlackUs = append(t.awaitSlackUs, float64(end-done)/1e3)
	t.mu.Unlock()
	return err
}

// Sleep is a span of the event engine on the discrete-event runtime.
func (r *Runtime) Sleep(d runtime.Time) {
	t := r.T
	if !t.serial {
		r.Runtime.Sleep(d)
		return
	}
	t.begin(&t.engine)
	r.Runtime.Sleep(d)
	t.end()
}

// Report snapshots the tracer. Call it under the execution guarantee of the
// wrapped runtime (not the decorated one, which would open a span).
func (t *Tracer) Report() Report {
	cp := func(m map[string]*Stat) map[string]Stat {
		out := make(map[string]Stat, len(m))
		for k, v := range m {
			out[k] = *v
		}
		return out
	}
	rep := Report{
		Recv: cp(t.recv), Timers: cp(t.timers), Sends: cp(t.sends),
		Engine: t.engine, DoHold: t.doHold, Overhead: t.overhead,
		Codec:     make(map[string]CodecStat, len(t.codecs)),
		QueuePeak: t.peak,
		SendUs:    append([]float64(nil), t.sendUs...),
	}
	for k, v := range t.codecs {
		rep.Codec[k] = *v
	}
	t.mu.Lock()
	rep.AwaitUs = append([]float64(nil), t.awaitUs...)
	rep.AwaitSlackUs = append([]float64(nil), t.awaitSlackUs...)
	rep.DoWaitUs = append([]float64(nil), t.doWaitUs...)
	rep.DoHoldUs = append([]float64(nil), t.doHoldUs...)
	t.mu.Unlock()
	return rep
}

// Reset zeroes every accumulator, starting a fresh measurement window. Call
// it under the wrapped runtime's execution guarantee, outside any span.
func (t *Tracer) Reset() { t.reset() }

func (t *Tracer) reset() {
	t.recv = make(map[string]*Stat)
	t.timers = make(map[string]*Stat)
	t.sends = make(map[string]*Stat)
	t.codecs = make(map[string]*CodecStat)
	t.engine, t.doHold, t.overhead = Stat{}, Stat{}, Stat{}
	t.sendUs = nil
	t.peak = 0
	t.mu.Lock()
	t.awaitUs, t.awaitSlackUs, t.doWaitUs, t.doHoldUs = nil, nil, nil, nil
	t.mu.Unlock()
}

// Total sums the self time of a map of stats.
func Total(m map[string]Stat) (n, selfNs int64) {
	for _, s := range m {
		n += s.N
		selfNs += s.SelfNs
	}
	return n, selfNs
}
