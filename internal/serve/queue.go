package serve

import (
	"container/heap"
	"context"
	"sync"
	"time"

	"temco/internal/obs"
)

// Priority orders queued requests: higher priorities are dequeued first;
// within a priority, FIFO by admission order.
type Priority int

const (
	PriorityLow    Priority = -1
	PriorityNormal Priority = 0
	PriorityHigh   Priority = 1
)

// item is one admitted request waiting for (or being run by) a worker.
type item struct {
	ctx  context.Context
	req  *Request
	enq  time.Time
	seq  uint64      // admission order, for FIFO within a priority
	done chan result // buffered(1); the worker delivers exactly once
	idx  int         // heap index

	// queued is the time from admission until a worker started on the
	// request (for batched requests: until the microbatch dispatched to a
	// worker, so the accumulation window counts as queueing). Set exactly
	// once, before any processing.
	queued time.Duration
	// rows is the request's sample-row count, classified at admission
	// (-1 when the inputs are not batchable).
	rows int
	// rt is the request's trace, resolved once at admission from the
	// caller context (nil when the caller attached none).
	rt *obs.ReqTrace
}

type result struct {
	resp *Response
	err  error
}

// queue is a bounded priority queue with blocking pop. Admission beyond the
// capacity fails immediately (the caller sheds load); pop blocks until an
// item arrives or the queue is closed.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  itemHeap
	cap    int
	seq    uint64
	closed bool
}

func newQueue(capacity int) *queue {
	q := &queue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits it, returning false when the queue is full or closed.
func (q *queue) push(it *item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.cap {
		return false
	}
	q.seq++
	it.seq = q.seq
	heap.Push(&q.items, it)
	q.cond.Signal()
	return true
}

// pop blocks until an item is available or the queue is closed and drained;
// the second return is false only in the latter case.
func (q *queue) pop() (*item, bool) { return q.popUntil(time.Time{}) }

// popUntil is pop with a deadline (the zero time waits forever): it blocks
// until an item arrives, the deadline passes, or the queue is closed and
// drained. It returns (item, true) on arrival, (nil, true) when the deadline
// expired with the queue still open (the coalescer's accumulation window
// ran out), and (nil, false) once the queue is closed and empty.
func (q *queue) popUntil(deadline time.Time) (*item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var wake *time.Timer
	defer func() {
		if wake != nil {
			wake.Stop()
		}
	}()
	for len(q.items) == 0 && !q.closed {
		if !deadline.IsZero() {
			d := time.Until(deadline)
			if d <= 0 {
				return nil, true
			}
			if wake == nil {
				// cond.Wait cannot time out; a one-shot broadcast at the
				// deadline bounds the wait without polling. The broadcast
				// takes q.mu so it cannot land between the deadline check
				// above and Wait registering, where it would be lost.
				wake = time.AfterFunc(d, func() {
					q.mu.Lock()
					q.cond.Broadcast()
					q.mu.Unlock()
				})
			}
		}
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	return heap.Pop(&q.items).(*item), true
}

// close stops admission. Queued items remain poppable so workers can drain
// them; once empty, pops return false.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// depth reports the number of queued (not yet popped) items.
func (q *queue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// itemHeap orders by (priority desc, seq asc).
type itemHeap []*item

func (h itemHeap) Len() int { return len(h) }
func (h itemHeap) Less(i, j int) bool {
	if h[i].req.Priority != h[j].req.Priority {
		return h[i].req.Priority > h[j].req.Priority
	}
	return h[i].seq < h[j].seq
}
func (h itemHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *itemHeap) Push(x any) {
	it := x.(*item)
	it.idx = len(*h)
	*h = append(*h, it)
}
func (h *itemHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
