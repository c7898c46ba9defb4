package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// This file is the request-scoped half of the tracing layer (DESIGN.md
// §15). The Tracer in trace.go records process-lifetime executor spans;
// a ReqTrace follows ONE request across tiers — router pick/retry/hedge,
// admission, queue wait, batch coalescing, engine steps, scatter — keyed
// by a W3C traceparent that temcor mints and temcod inherits, so the two
// processes' timelines join on one trace id.

// TraceparentHeader is the W3C trace-context header carrying the trace id
// across tier boundaries (lowercase per the spec; Go's header canonical-
// ization is applied on Set/Get either way).
const TraceparentHeader = "traceparent"

// RequestIDHeader carries the human-greppable request id. It is echoed on
// every response — including sheds, drains, and relay errors — so any
// status code can be correlated with logs and the flight recorder.
const RequestIDHeader = "X-Temco-Request-Id"

// TraceContext identifies one end-to-end request. TraceID spans the whole
// journey; SpanID names the current hop, ParentID the hop that minted it.
type TraceContext struct {
	TraceID   string `json:"trace_id"` // 32 lowercase hex chars
	SpanID    string `json:"span_id"`  // 16 lowercase hex chars
	ParentID  string `json:"parent_id,omitempty"`
	RequestID string `json:"request_id"`
	Sampled   bool   `json:"sampled"`
}

// randHex returns n random bytes as 2n lowercase hex characters.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing means the platform is broken; fall back to
		// an all-zero id rather than taking the serving path down.
		for i := range b {
			b[i] = 0
		}
	}
	return hex.EncodeToString(b)
}

// NewTraceContext mints a fresh root context: new trace id, new span id,
// and a request id derived from the trace id so the two are greppable
// together.
func NewTraceContext() TraceContext {
	tid := randHex(16)
	return TraceContext{
		TraceID:   tid,
		SpanID:    randHex(8),
		RequestID: "req-" + tid[:12],
		Sampled:   true,
	}
}

// Child derives the next hop's context: same trace and request id, a new
// span id, with the current span recorded as the parent.
func (tc TraceContext) Child() TraceContext {
	tc.ParentID = tc.SpanID
	tc.SpanID = randHex(8)
	return tc
}

// Traceparent renders the W3C header value: 00-<trace-id>-<span-id>-<flags>.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header. ok is false for a
// missing or malformed value (version, field widths, hex alphabet, and the
// all-zero ids the spec forbids); callers then mint a fresh context.
func ParseTraceparent(h string) (TraceContext, bool) {
	// 00-xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx-xxxxxxxxxxxxxxxx-xx
	if len(h) != 55 || h[0] != '0' || h[1] != '0' ||
		h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	traceID, spanID, flags := h[3:35], h[36:52], h[53:55]
	if !isHex(traceID) || !isHex(spanID) || !isHex(flags) {
		return TraceContext{}, false
	}
	if allZero(traceID) || allZero(spanID) {
		return TraceContext{}, false
	}
	return TraceContext{
		TraceID:   traceID,
		SpanID:    spanID,
		RequestID: "req-" + traceID[:12],
		Sampled:   flags[1]&1 == 1,
	}, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// ReqSpan is one annotated step of a request timeline. Offsets are on the
// request's own clock (time since the ReqTrace was created), so spans from
// different tiers of one process order naturally.
type ReqSpan struct {
	// Stage names the step ("route.attempt", "serve.queue", "serve.run",
	// "batch.bucket", "engine.step", ...). Detail carries the
	// stage-specific annotation (replica URL, bucket size, node name).
	Stage  string `json:"stage"`
	Detail string `json:"detail,omitempty"`
	// Step is the schedule slot for engine/exec steps, -1 elsewhere.
	Step    int           `json:"step"`
	StartNS time.Duration `json:"start_ns"`
	DurNS   time.Duration `json:"dur_ns"`
}

// reqTraceSpanCap bounds the per-request span buffer. It is preallocated
// at NewReqTrace; further spans are dropped and counted, so a pathological
// request cannot grow memory. Large enough for every Fig. 11 model's
// per-step engine spans plus the serving-tier annotations.
const reqTraceSpanCap = 192

// ReqTrace accumulates one request's spans while the request is live.
// Safe for concurrent use: the router's hedged attempts and the serving
// tier's workers may annotate the same request from different goroutines.
// After Finish, further records are dropped — a hedge loser that reports
// late cannot corrupt the sealed timeline.
type ReqTrace struct {
	tc    TraceContext
	start time.Time

	mu       sync.Mutex
	spans    []ReqSpan
	dropped  int
	status   string
	errMsg   string
	siblings []string
	done     bool
}

// NewReqTrace starts a request timeline with a preallocated span buffer.
func NewReqTrace(tc TraceContext) *ReqTrace {
	return &ReqTrace{tc: tc, start: time.Now(), spans: make([]ReqSpan, 0, reqTraceSpanCap)}
}

// Context returns the request's trace identifiers.
func (rt *ReqTrace) Context() TraceContext { return rt.tc }

// Since returns the elapsed time on the request's clock.
func (rt *ReqTrace) Since() time.Duration { return time.Since(rt.start) }

// SpanAt records a span positioned by request-clock offsets. Stage and
// detail should be interned or pre-existing strings on hot paths; the
// append itself never reallocates (capacity fixed at NewReqTrace).
func (rt *ReqTrace) SpanAt(stage, detail string, step int, start, dur time.Duration) {
	rt.mu.Lock()
	if !rt.done {
		if len(rt.spans) < cap(rt.spans) {
			rt.spans = append(rt.spans, ReqSpan{Stage: stage, Detail: detail, Step: step, StartNS: start, DurNS: dur})
		} else {
			rt.dropped++
		}
	}
	rt.mu.Unlock()
}

// Span records a wall-clock span (start .. start+dur).
func (rt *ReqTrace) Span(stage, detail string, start time.Time, dur time.Duration) {
	rt.SpanAt(stage, detail, -1, start.Sub(rt.start), dur)
}

// Event records an instantaneous annotation at the current time.
func (rt *ReqTrace) Event(stage, detail string) {
	rt.SpanAt(stage, detail, -1, rt.Since(), 0)
}

// SetStatus classifies the request outcome explicitly ("ok", "error",
// "shed", "degraded", "deadline"). An explicit status wins over the
// HTTP-code derivation in Finish; the flight recorder keeps every non-ok
// timeline.
func (rt *ReqTrace) SetStatus(status string) {
	rt.mu.Lock()
	if !rt.done {
		rt.status = status
	}
	rt.mu.Unlock()
}

// SetError attaches the failure message (and implies an error-class
// status unless one was already set).
func (rt *ReqTrace) SetError(msg string) {
	rt.mu.Lock()
	if !rt.done {
		rt.errMsg = msg
	}
	rt.mu.Unlock()
}

// AddSibling links another request id that rode the same coalesced batch.
func (rt *ReqTrace) AddSibling(id string) {
	rt.mu.Lock()
	if !rt.done {
		rt.siblings = append(rt.siblings, id)
	}
	rt.mu.Unlock()
}

// statusForHTTP derives the timeline status class from an HTTP code when
// no tier set one explicitly.
func statusForHTTP(code int) string {
	switch {
	case code == 429 || code == 503:
		return "shed"
	case code == 504:
		return "deadline"
	case code >= 400:
		return "error"
	default:
		return "ok"
	}
}

// Finish seals the trace into an immutable timeline and drops all later
// records (hedge losers, canceled batch mates). Idempotent in effect:
// a second Finish returns a timeline with the same identity but whatever
// spans remained — callers are expected to Finish exactly once.
func (rt *ReqTrace) Finish(httpStatus int) ReqTimeline {
	rt.mu.Lock()
	rt.done = true
	status := rt.status
	if status == "" {
		status = statusForHTTP(httpStatus)
	}
	tl := ReqTimeline{
		TraceID:      rt.tc.TraceID,
		RequestID:    rt.tc.RequestID,
		ParentID:     rt.tc.ParentID,
		Start:        rt.start,
		DurNS:        time.Since(rt.start),
		Status:       status,
		HTTPStatus:   httpStatus,
		Err:          rt.errMsg,
		DroppedSpans: rt.dropped,
	}
	tl.Spans = make([]ReqSpan, len(rt.spans))
	copy(tl.Spans, rt.spans)
	if len(rt.siblings) > 0 {
		tl.Siblings = append([]string(nil), rt.siblings...)
	}
	rt.mu.Unlock()
	return tl
}

// reqTraceKey keys the context value; a private zero-size type so the
// lookup neither collides nor allocates.
type reqTraceKey struct{}

// ContextWithRequest attaches a request trace to ctx; every tier below
// (serve, engine, exec, the router's outbound attempts) retrieves it with
// RequestFrom and annotates its part of the timeline.
func ContextWithRequest(ctx context.Context, rt *ReqTrace) context.Context {
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// RequestFrom returns the request trace attached to ctx, or nil. The nil
// path is the disabled path: executors check once per run and skip all
// request-scoped instrumentation.
func RequestFrom(ctx context.Context) *ReqTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*ReqTrace)
	return rt
}
