package runtime_test

import (
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
	rnet "repro/internal/runtime/net"
)

// wallRuntime is a runtime built on the shared executor.
type wallRuntime interface {
	runtime.Runtime
	Close()
}

type ping struct{ Seq int }

// forEachWallRuntime runs f against every runtime that embeds the executor,
// each with the given Await timeout.
func forEachWallRuntime(t *testing.T, awaitTimeout time.Duration, f func(t *testing.T, rt wallRuntime)) {
	t.Run("live", func(t *testing.T) {
		rt := live.New(live.Config{AwaitTimeout: awaitTimeout})
		t.Cleanup(rt.Close)
		f(t, rt)
	})
	t.Run("net", func(t *testing.T) {
		rt, err := rnet.New(rnet.Config{Listen: "127.0.0.1:0", Messages: []any{ping{}}, AwaitTimeout: awaitTimeout})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		f(t, rt)
	})
}

// startAwait runs rt.Await(cond) on its own goroutine and returns once cond
// has been evaluated for the first time, which is also when the Await is
// registered. calls counts evaluations (read it under the executor).
func startAwait(rt wallRuntime, cond func() bool) (errc chan error, calls *int) {
	calls = new(int)
	entered := make(chan struct{})
	errc = make(chan error, 1)
	go func() {
		errc <- rt.Await(func() bool {
			*calls++
			if *calls == 1 {
				close(entered)
			}
			return cond()
		})
	}()
	<-entered
	return errc, calls
}

func awaitResult(t *testing.T, errc chan error, within time.Duration) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(within):
		t.Fatalf("Await still blocked after %v", within)
		return nil
	}
}

// TestAwaitWakesWithoutPolling: on an idle executor a pending Await's
// condition is evaluated once on entry and then not again until a turn
// (here a Do) runs, and that turn wakes the Await.
func TestAwaitWakesWithoutPolling(t *testing.T) {
	forEachWallRuntime(t, 30*time.Second, func(t *testing.T, rt wallRuntime) {
		ready := false
		errc, calls := startAwait(rt, func() bool { return ready })
		time.Sleep(50 * time.Millisecond)
		rt.Do(func() {
			if *calls != 1 {
				t.Errorf("condition evaluated %d times on an idle executor, want 1", *calls)
			}
			ready = true
		})
		if err := awaitResult(t, errc, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		rt.Do(func() {
			if *calls != 2 {
				t.Errorf("condition evaluated %d times in all, want 2", *calls)
			}
		})
	})
}

// TestCloseWakesAwait: Close fails a pending Await at once rather than after
// its timeout, and an Await on a closed runtime fails immediately.
func TestCloseWakesAwait(t *testing.T) {
	forEachWallRuntime(t, 30*time.Second, func(t *testing.T, rt wallRuntime) {
		errc, _ := startAwait(rt, func() bool { return false })
		rt.Close()
		if err := awaitResult(t, errc, 5*time.Second); err == nil {
			t.Fatal("Await returned nil after Close with its condition false")
		}
		start := time.Now()
		if err := rt.Await(func() bool { return false }); err == nil {
			t.Fatal("Await on a closed runtime returned nil")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Await on a closed runtime took %v", d)
		}
	})
}

// TestAwaitDeadlineRaceFavorsCondition: a turn that makes the condition true
// while the deadline passes (it holds the executor lock across the deadline)
// still makes Await return nil.
func TestAwaitDeadlineRaceFavorsCondition(t *testing.T) {
	forEachWallRuntime(t, 20*time.Millisecond, func(t *testing.T, rt wallRuntime) {
		ready := false
		errc, _ := startAwait(rt, func() bool { return ready })
		rt.Do(func() {
			ready = true
			time.Sleep(60 * time.Millisecond)
		})
		if err := awaitResult(t, errc, 5*time.Second); err != nil {
			t.Fatalf("Await failed although its condition held: %v", err)
		}
		// With nothing to complete it, the same Await times out.
		if err := rt.Await(func() bool { return false }); err == nil {
			t.Fatal("Await with a false condition returned nil")
		}
	})
}

// TestTimerCancelVersusFire pins the timer contract: a cancelled timer never
// runs, including one whose firing is already waiting for the executor lock;
// a fired timer is no longer scheduled and cannot be cancelled; the zero
// Handle is inert; and a closed runtime arms nothing.
func TestTimerCancelVersusFire(t *testing.T) {
	forEachWallRuntime(t, 10*time.Second, func(t *testing.T, rt wallRuntime) {
		var cancelled, raced, fired int
		rt.Do(func() {
			h := rt.Schedule(20*runtime.Millisecond, func() { cancelled++ })
			if !rt.Scheduled(h) {
				t.Error("fresh timer not scheduled")
			}
			if !rt.Unschedule(h) {
				t.Error("Unschedule of a pending timer reported false")
			}
			if rt.Scheduled(h) || rt.Unschedule(h) {
				t.Error("cancelled timer still pending")
			}
		})
		rt.Do(func() {
			h := rt.Schedule(0, func() { raced++ })
			time.Sleep(5 * time.Millisecond) // its AfterFunc now waits for the executor lock
			if !rt.Unschedule(h) {
				t.Error("Unschedule lost to a firing that had not run")
			}
		})
		var h runtime.Handle
		rt.Do(func() { h = rt.Schedule(runtime.Millisecond, func() { fired++ }) })
		if err := rt.Await(func() bool { return fired == 1 }); err != nil {
			t.Fatal(err)
		}
		time.Sleep(40 * time.Millisecond) // past every deadline above
		rt.Do(func() {
			if rt.Scheduled(h) || rt.Unschedule(h) {
				t.Error("fired timer still pending")
			}
			if rt.Scheduled(runtime.Handle{}) || rt.Unschedule(runtime.Handle{}) {
				t.Error("zero Handle refers to a timer")
			}
			if cancelled != 0 || raced != 0 || fired != 1 {
				t.Errorf("runs: cancelled %d, raced %d, fired %d; want 0, 0, 1", cancelled, raced, fired)
			}
		})
		rt.Close()
		rt.Do(func() {
			if h := rt.Schedule(0, func() { fired++ }); !h.Zero() {
				t.Error("Schedule after Close armed a timer")
			}
		})
	})
}
