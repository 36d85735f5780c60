package bench

import (
	"bytes"
	"runtime"
	"time"

	"swarm/internal/model"
)

// driveModelTime runs a latency-injected benchmark on model time: every
// injected delay sleeps on clock, a model.FakeClock, and the clock moves
// one step forward each time no goroutine is running but some are asleep
// on it. When every delay is one step long, each step wakes exactly the
// sleepers due, so a phase's model time counts the injected delays on
// its critical path and nothing else — a scheduling stall or a loaded
// host changes how long the run takes, not what it measures. The
// returned stop ends the goroutine that steps the clock.
func driveModelTime(clock *model.FakeClock, step time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	// swarmlint:goroleak-ok — exits when stop closes done
	go func() {
		defer close(exited)
		buf := make([]byte, 64<<10)
		for {
			select {
			case <-done:
				return
			default:
			}
			if clock.NumWaiters() > 0 && quiescent(&buf) {
				clock.Advance(step)
				continue
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// quiescent reports whether every goroutine but the caller is blocked:
// none is running or runnable. A goroutine parked in a system call
// counts as blocked (os/signal's receiver waits there for good).
func quiescent(buf *[]byte) bool {
	for {
		n := runtime.Stack(*buf, true)
		if n < len(*buf) {
			busy := bytes.Count((*buf)[:n], []byte(" [running")) + bytes.Count((*buf)[:n], []byte(" [runnable"))
			return busy == 1 // the caller itself
		}
		*buf = make([]byte, 2*len(*buf))
	}
}
