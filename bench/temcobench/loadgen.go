package main

import (
	"context"
	"math"
	"time"

	"temco/internal/tensor"
)

// clock is the time source of the open-loop generator, so a test can drive
// the schedule with a fake one. Times are offsets from the phase start.
type clock interface {
	Now() time.Duration
	// SleepUntil returns once Now() >= t, or early when ctx is done.
	SleepUntil(ctx context.Context, t time.Duration)
}

type wallClock struct{ t0 time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.t0) }

func (c wallClock) SleepUntil(ctx context.Context, t time.Duration) {
	d := t - c.Now()
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
}

// arrival is one request of an open-loop schedule: when it is due and which
// of the workload's inputs it carries.
type arrival struct {
	due   time.Duration
	input int
}

// poissonSchedule draws arrivals at the given mean rate over [0, d): gaps are
// exponential, so requests bunch and spread the way independent users do.
// The same rng state gives the same schedule.
func poissonSchedule(rng *tensor.RNG, rate float64, d time.Duration, inputs int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, input: rng.Intn(inputs)})
	}
}

// openRecord is the outcome of one open-loop request. Latency runs from the
// time the request was due, not from when the generator got round to sending
// it: a stall in the generator or the system delays every later request, and
// timing from the send would hide exactly that wait.
type openRecord struct {
	due, sent, done time.Duration
	ok              bool // a correct response arrived
}

func (r openRecord) latency() time.Duration { return r.done - r.due }
func (r openRecord) lag() time.Duration     { return r.sent - r.due }

// phaseCounts is what the generator reports per phase.
type phaseCounts struct {
	Sent, Succeeded, Failed, Late int
}

// runOpenLoop issues every arrival of sched at its due time from the calling
// goroutine, whatever happened to the earlier ones. issue must not block on
// the response (the real one starts a goroutine); it receives the index, the
// arrival and the send time. It returns the number issued, which is below
// len(sched) only when ctx ended first.
func runOpenLoop(ctx context.Context, clk clock, sched []arrival, issue func(i int, a arrival, sent time.Duration)) int {
	for i, a := range sched {
		clk.SleepUntil(ctx, a.due)
		if ctx.Err() != nil {
			return i
		}
		issue(i, a, clk.Now())
	}
	return len(sched)
}

// countPhase folds the records of one phase. A request is late when its
// latency from the due time exceeds limit; failed when no correct response
// arrived.
func countPhase(recs []openRecord, limit time.Duration) phaseCounts {
	c := phaseCounts{Sent: len(recs)}
	for _, r := range recs {
		switch {
		case !r.ok:
			c.Failed++
		case r.latency() > limit:
			c.Succeeded++
			c.Late++
		default:
			c.Succeeded++
		}
	}
	return c
}
