package serve

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchWindowPopUntilNoLostWakeup hammers the coalescer's timed pop on
// an empty queue with windows of nanoseconds to microseconds: exactly the
// case where the deadline wake-up can fire between popUntil's deadline
// check and its wait. A lost wake-up parks the caller until the next
// admission, which on an empty queue is never; the watchdog catches that
// as a stall and unsticks the caller by closing the queue.
func TestBatchWindowPopUntilNoLostWakeup(t *testing.T) {
	q := newQueue(1)
	const calls = 5000
	var progress atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < calls; i++ {
			d := time.Duration(i%64) * 100 * time.Nanosecond
			if it, ok := q.popUntil(time.Now().Add(d)); it != nil || !ok {
				return
			}
			progress.Add(1)
		}
	}()
	last := int64(-1)
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-done:
			if n := progress.Load(); n != calls {
				t.Fatalf("popUntil returned early after %d of %d calls", n, calls)
			}
			return
		case <-tick.C:
			n := progress.Load()
			if n == last {
				q.close()
				<-done
				t.Fatalf("popUntil stalled past its deadline after %d calls: lost wake-up", n)
			}
			last = n
		}
	}
}
