package serve

import (
	"context"
	"strconv"
	"time"

	"temco/internal/engine"
	"temco/internal/exec"
	"temco/internal/ir"
	"temco/internal/obs"
	"temco/internal/tensor"
)

// This file is the dynamic-batching stage and the run step every worker
// shares. A coalescer goroutine between the admission queue and the worker
// pool accumulates compatible requests (same graph input shapes, same
// priority class) up to Config.MaxBatchSize rows or until the
// Config.MaxBatchLatency window expires. Requests that cannot batch —
// deadline too tight for the window, non-batchable input shapes, at least
// as many rows as the batch cap — bypass the window as one-member
// microbatches. attempt packs a microbatch's rows into one input tensor
// padded to the nearest bucket of the ladder, runs the graph once, and
// scatters per-request output slices back; a lone member already at its
// bucket runs on its own inputs, and so does every member of a run that
// exceeded the memory budget at its bucket.

// batchLadder is the batch-size ladder: the bucket sizes runs pad to
// (clipped to Config.MaxBatchSize, with the cap as the top bucket).
// Padding to it no longer pays. Every ungrouped k×k conv runs as a GEMM,
// so run time grows linearly with rows: alexnet 32×32 Fusion on one
// engine Instance and one worker takes 0.82, 1.09, 1.37, 1.66, 1.93,
// 2.22, 2.52 and 2.81 ms at 1 to 8 rows (2-vCPU Xeon), and a run padded
// from 3 rows to 4 is about 20 % slower than one at 3. The ladder stays
// until runs execute at the rows that arrived.
var batchLadder = [...]int{1, 4, 8, 16, 32}

// microbatch is one unit of work a worker runs: a coalesced window of
// compatible members, or (solo=true) a single request — every request with
// batching off, a bypass, or a member of a split batch. solo selects
// accounting only: solo runs leave the batched_* and occupancy instruments
// alone and record no batch.* spans.
type microbatch struct {
	members []*item
	rows    int      // total sample rows across members
	prio    Priority // all members share one priority class
	opened  time.Time
	// deadline is when the accumulation window expires and the batch
	// dispatches regardless of occupancy.
	deadline time.Time
	solo     bool
}

// coalesce drains the admission queue into microbatches until the session
// closes. It is the only consumer of the queue when batching is enabled;
// workers consume s.batchCh instead. On close the queue drains fully (pop
// keeps returning queued items), the open batch dispatches, and closing
// batchCh releases the workers.
func (s *Session) coalesce() {
	defer s.workers.Done()
	defer close(s.batchCh)
	var open *microbatch
	for {
		var until time.Time // no open window: wait for the first member
		if open != nil {
			until = open.deadline
		}
		it, ok := s.q.popUntil(until)
		if !ok {
			if open != nil {
				s.dispatch(open)
			}
			return
		}
		if it == nil {
			// Window expired: ship what accumulated.
			s.dispatch(open)
			open = nil
			continue
		}
		now := time.Now()
		windowEnd := now.Add(s.cfg.MaxBatchLatency)
		if open != nil {
			windowEnd = open.deadline
		}
		if dl, ok := it.ctx.Deadline(); it.rows < 0 || it.rows >= s.cfg.MaxBatchSize || (ok && dl.Before(windowEnd)) {
			// Not batchable (shape mismatch), already a full batch on its
			// own (no coalescing win), or a deadline that cannot survive
			// the accumulation window (waiting would cancel the request):
			// it runs alone.
			s.met.batchBypass.Inc()
			s.batchCh <- &microbatch{members: []*item{it}, solo: true}
			continue
		}
		if open != nil && (it.req.Priority != open.prio || open.rows+it.rows > s.cfg.MaxBatchSize) {
			// Incompatible with the open batch (different priority class,
			// or it would overflow the cap): ship the open batch first.
			s.dispatch(open)
			open = nil
		}
		if open == nil {
			open = &microbatch{
				prio:     it.req.Priority,
				opened:   now,
				deadline: now.Add(s.cfg.MaxBatchLatency),
			}
		}
		open.members = append(open.members, it)
		open.rows += it.rows
		s.met.batchPending.Add(1)
		if open.rows >= s.cfg.MaxBatchSize {
			s.dispatch(open)
			open = nil
		}
	}
}

// dispatch hands a coalesced batch to a worker, closing its window
// accounting.
func (s *Session) dispatch(b *microbatch) {
	s.met.batchPending.Add(-int64(len(b.members)))
	s.met.batchWait.Observe(time.Since(b.opened).Seconds())
	s.batchCh <- b
}

// rowsFor classifies a request for batching: it returns the request's
// sample-row count when every input is a batched [N, sample...] tensor
// matching the optimized graph's input shapes (with one shared N), and -1
// when the request is not batchable. A -1 request still runs — alone, on
// its own inputs, where the executor applies its own shape validation.
func (s *Session) rowsFor(ins []*tensor.Tensor) int {
	if len(ins) != len(s.opt.Inputs) {
		return -1
	}
	rows := 0
	for i, t := range ins {
		want := s.opt.Inputs[i].Shape
		if len(t.Shape) != len(want)+1 || t.Dim(0) < 1 {
			return -1
		}
		for j, d := range want {
			if t.Shape[j+1] != d {
				return -1
			}
		}
		if i == 0 {
			rows = t.Dim(0)
		} else if t.Dim(0) != rows {
			return -1
		}
	}
	return rows
}

// bucketFor returns the smallest batch bucket holding rows, or rows itself
// beyond the top of the ladder (only reachable for requests over the
// batch cap, or for multi-row requests with batching off).
func (s *Session) bucketFor(rows int) int {
	for _, b := range s.buckets {
		if b >= rows {
			return b
		}
	}
	return rows
}

// packBuf is a worker-owned set of reusable batched input tensors, one set
// per bucket, so the steady-state pack step allocates nothing.
type packBuf struct {
	byBucket map[int][]*tensor.Tensor
}

// inputsFor returns the bucket-shaped input tensors, building them on
// first use of that bucket.
func (pk *packBuf) inputsFor(g *ir.Graph, bucket int) []*tensor.Tensor {
	if pk.byBucket == nil {
		pk.byBucket = make(map[int][]*tensor.Tensor)
	}
	ins, ok := pk.byBucket[bucket]
	if !ok {
		ins = make([]*tensor.Tensor, len(g.Inputs))
		for i, n := range g.Inputs {
			ins[i] = tensor.New(append([]int{bucket}, n.Shape...)...)
		}
		pk.byBucket[bucket] = ins
	}
	return ins
}

// packBatch gathers the members' rows contiguously into the bucket-shaped
// inputs and zeroes the padded tail, so a padded run is deterministic
// regardless of what the reused buffer last held.
func packBatch(ins []*tensor.Tensor, members []*item, bucket int) {
	for i, dst := range ins {
		per := dst.Len() / bucket
		row := 0
		for _, m := range members {
			copy(dst.Data[row*per:], m.req.Inputs[i].Data)
			row += m.rows
		}
		tail := dst.Data[row*per:]
		for x := range tail {
			tail[x] = 0
		}
	}
}

// attempt runs the graph once over live's rows and returns each member's
// outputs in tensors the member owns, and whether the run packed. A lone
// member runs on its own input tensors when its rows already sit on a
// bucket, when its inputs are not batchable, or when unpadded is set (the
// re-run of a budget split); any other run packs the rows into the
// worker's bucket-shaped inputs and scatters each member's row range of
// every output back. Every attempt records one serve.run span on each
// traced member.
func (s *Session) attempt(live []*item, solo, unpadded bool, g *ir.Graph, inst *engine.Instance, pk *packBuf) ([][]*tensor.Tensor, bool, error) {
	rows := 0
	for _, it := range live {
		rows += it.rows
	}
	bucket := s.bucketFor(rows)
	ins := live[0].req.Inputs
	packed := len(live) > 1 || (!unpadded && rows >= 0 && rows != bucket)
	if packed {
		ins = pk.inputsFor(s.opt, bucket)
		packBatch(ins, live, bucket)
		s.met.paddedSlots.Add(uint64(bucket - rows))
	}
	if !solo {
		s.met.batchedRuns.Inc()
		s.met.batchOccupancy.Observe(float64(rows))
		for _, it := range live {
			if it.rt != nil {
				it.rt.Event("batch.bucket", strconv.Itoa(bucket))
			}
		}
	}
	ctx, cancel := s.runContext(live)
	defer cancel()
	runStart := time.Now()
	var res *exec.Result
	var err error
	if inst == nil {
		res, err = exec.RunCtx(ctx, g, s.cfg.BudgetBytes, ins...)
	} else {
		res, err = inst.Run(ctx, ins...)
	}
	for _, it := range live {
		if it.rt != nil {
			// The span names which graph served the attempt (the fallback
			// name marks breaker routing).
			it.rt.Span("serve.run", g.Name, runStart, time.Since(runStart))
		}
	}
	if err != nil {
		return nil, packed, err
	}
	if !packed && inst == nil {
		// The interpreter's outputs are fresh: the lone member takes them.
		return [][]*tensor.Tensor{res.Outputs}, false, nil
	}
	// Engine outputs alias the instance's reusable buffers, so every
	// member gets its own copy before they escape to the caller.
	scStart := time.Now()
	outs := make([][]*tensor.Tensor, len(live))
	row := 0
	for i, it := range live {
		outs[i] = make([]*tensor.Tensor, len(res.Outputs))
		for j, o := range res.Outputs {
			if !packed {
				outs[i][j] = o.Clone()
				continue
			}
			per := o.Len() / bucket
			slice := tensor.New(append([]int{it.rows}, o.Shape[1:]...)...)
			copy(slice.Data, o.Data[row*per:(row+it.rows)*per])
			outs[i][j] = slice
		}
		row += it.rows
	}
	if !solo {
		for _, it := range live {
			if it.rt != nil {
				it.rt.Span("batch.scatter", "", scStart, time.Since(scStart))
			}
		}
	}
	return outs, packed, nil
}

// runContext is an attempt's context. A lone member runs under its own
// context, so its caller's cancel stops the kernels mid-node. A shared run
// derives from the session's baseCtx (forced shutdown still cancels it
// mid-kernel) bounded by the latest member deadline — Infer gives every
// request one — so one member's cancel cannot abort its batchmates; it
// carries the primary member's trace so the engine's per-step spans land
// on a timeline.
func (s *Session) runContext(live []*item) (context.Context, context.CancelFunc) {
	if len(live) == 1 {
		return live[0].ctx, func() {}
	}
	var latest time.Time
	for _, it := range live {
		if dl, _ := it.ctx.Deadline(); dl.After(latest) {
			latest = dl
		}
	}
	ctx, cancel := context.WithDeadline(s.baseCtx, latest)
	if rt := primaryTrace(live); rt != nil {
		ctx = obs.ContextWithRequest(ctx, rt)
	}
	return ctx, cancel
}
