package fgservice

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"freerideg/internal/metrics"
	"freerideg/internal/reqtrace"
)

// limiter bounds concurrently handled requests with the same
// semaphore-channel shape as the bench harness's worker pool. Unlike the
// pool, a full limiter rejects instead of queueing: a saturated
// prediction service should shed load with 503s, not build an unbounded
// backlog of goroutines.
type limiter struct {
	slots chan struct{}
}

// newLimiter builds a limiter admitting n concurrent requests (n < 1
// selects 4×GOMAXPROCS, enough to keep the prediction arithmetic and the
// occasional profiling simulation busy without unbounded fan-out).
func newLimiter(n int) *limiter {
	if n < 1 {
		n = 4 * runtime.GOMAXPROCS(0)
	}
	return &limiter{slots: make(chan struct{}, n)}
}

// tryAcquire claims a slot without blocking.
func (l *limiter) tryAcquire() bool {
	select {
	case l.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (l *limiter) release() { <-l.slots }

// saturated reports whether every slot is taken right now — the signal
// /healthz uses to report degraded state while load is being shed.
func (l *limiter) saturated() bool { return len(l.slots) == cap(l.slots) }

// statusWriter is the ResponseWriter a handler renders into: it passes
// everything through to the real writer and remembers the status, so
// the middleware's error, latency, 499/504 counters and the trace ring
// see the outcome after the handler returns.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(p)
}

// instrument wraps one endpoint with method filtering, the concurrency
// bound (nil lim admits everything — /healthz must answer even under
// load), deadline/cancellation propagation, the test-only slowdown, and
// per-endpoint request metrics.
//
// Every admitted request runs its handler inline, under a context
// derived from the client's (so a disconnect cancels it) bounded by the
// server's RequestTimeout budget. The deadline is enforced
// cooperatively: every blocking wait on the serve path selects on that
// context, so a handler whose request dies mid-wait answers the JSON
// 499/504 envelope itself through errorStatus and returns, releasing
// its limiter slot at once rather than holding it for a computation
// nobody is waiting on.
func (s *Server) instrument(path string, lim *limiter, method string, h http.HandlerFunc) http.Handler {
	label := metrics.Label{Key: "path", Value: path}
	requests := metrics.GetCounter("fg_http_requests_total",
		"HTTP requests handled, by endpoint.", label)
	errs := metrics.GetCounter("fg_http_errors_total",
		"HTTP responses with status >= 400, by endpoint.", label)
	throttled := metrics.GetCounter("fg_http_throttled_total",
		"HTTP requests rejected with 503 by the concurrency bound, by endpoint.", label)
	canceled := metrics.GetCounter("fg_requests_canceled_total",
		"Requests abandoned because the client disconnected mid-handling, by endpoint.", label)
	deadlineExceeded := metrics.GetCounter("fg_requests_deadline_exceeded_total",
		"Requests that exhausted the per-request deadline budget and answered 504, by endpoint.", label)
	latency := metrics.GetHistogram("fg_http_request_seconds",
		"HTTP request handling latency in seconds, by endpoint.", nil, label)
	inflight := metrics.GetGauge("fg_http_inflight_requests",
		"Requests currently being handled, by endpoint.", label)

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		// Every request — including ones rejected below — gets an ID,
		// echoed in the response header and readable by writeError for
		// the error envelope. The shared slice is assigned into the
		// header map directly (instead of via Set) so the ID costs
		// exactly two allocations: the string and this slice.
		idv := []string{reqtrace.NewID()}
		w.Header()[reqtrace.Header] = idv
		if r.Method != method {
			errs.Inc()
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed,
				&methodError{method: r.Method, want: method, path: path})
			return
		}
		if lim != nil && !lim.tryAcquire() {
			throttled.Inc()
			errs.Inc()
			writeError(w, http.StatusServiceUnavailable, errOverloaded)
			return
		}
		// Taken before the trace starts, so every span (the handler
		// span included) lies inside the root window the trace is
		// finished with.
		start := time.Now()
		ctx, cancelReq := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
		inflight.Add(1)
		defer func() {
			if lim != nil {
				lim.release()
			}
			inflight.Add(-1)
			cancelReq()
		}()
		// Tracing rides only the bounded endpoints (the ones doing real
		// work) and only when sampling selects the request; the ID above
		// is unconditional. The trace context derives from ctx, so the
		// deadline is shared.
		var tr *reqtrace.Trace
		hctx := ctx
		var hspan reqtrace.Span
		if lim != nil && s.sampleTrace() {
			tr = reqtrace.New(idv[0], path)
			hctx = reqtrace.WithTrace(ctx, tr)
			hctx, hspan = reqtrace.StartSpan(hctx, "handler")
		}

		sw := &statusWriter{ResponseWriter: w}
		// The test-only slowdown models handler work, which only the
		// bounded endpoints do; a delayed health probe would observe the
		// world after the load it is meant to report has drained. It is
		// context-aware like any other handler work: a request that dies
		// mid-delay answers the envelope instead of running the handler,
		// which would do real work — cache fills, profiling runs — on
		// behalf of nobody.
		if err := s.slowdown(ctx, lim != nil); err != nil {
			writeError(sw, errorStatus(err), err)
		} else {
			h(sw, r.WithContext(hctx))
		}
		hspan.End()

		elapsed := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		latency.Observe(elapsed.Seconds())
		if status >= 400 {
			errs.Inc()
		}
		switch status {
		case http.StatusGatewayTimeout:
			deadlineExceeded.Inc()
		case StatusClientClosedRequest:
			canceled.Inc()
		}
		if tr != nil {
			rec := tr.Finish(status, elapsed)
			s.traceRing.Add(rec)
			if thr := s.opts.SlowRequestThreshold; thr > 0 && elapsed >= thr {
				s.logSlowRequest(rec)
			}
		}
	})
}

// slowdown waits out the test-only handler delay on bounded endpoints,
// returning ctx's error if the request ends first.
func (s *Server) slowdown(ctx context.Context, bounded bool) error {
	if s.delay <= 0 || !bounded {
		return nil
	}
	t := time.NewTimer(s.delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// sampleTrace decides whether the next bounded-endpoint request gets a
// span tree: a negative TraceSample disables tracing, 0 or 1 traces
// every request, n > 1 traces one in n (the counter is server-wide, so
// the sampled fraction holds across endpoints).
func (s *Server) sampleTrace() bool {
	n := s.opts.TraceSample
	switch {
	case n < 0:
		return false
	case n <= 1:
		return true
	}
	return s.traceSeq.Add(1)%uint64(n) == 1
}

// logSlowRequest emits the one-line over-threshold report: the request
// identity, outcome, total latency, and the span breakdown (name,
// duration, and note per span, parentage by nesting order).
func (s *Server) logSlowRequest(rec reqtrace.Record) {
	var b strings.Builder
	fmt.Fprintf(&b, "slow_request id=%s path=%s status=%d duration=%s spans=%d breakdown=\"",
		rec.ID, rec.Path, rec.Status, rec.DurationNs, len(rec.Spans))
	for i, sp := range rec.Spans {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(sp.Name)
		b.WriteByte(':')
		b.WriteString(sp.DurationNs.String())
		if sp.Note != "" {
			b.WriteByte('[')
			b.WriteString(sp.Note)
			b.WriteByte(']')
		}
	}
	b.WriteString("\"\n")
	s.slowLogMu.Lock()
	_, _ = io.WriteString(s.slowLog, b.String())
	s.slowLogMu.Unlock()
}

type methodError struct {
	method, want, path string
}

func (e *methodError) Error() string {
	return "method " + e.method + " not allowed on " + e.path + " (want " + e.want + ")"
}

type constError string

func (e constError) Error() string { return string(e) }

// errOverloaded is the load-shedding response body.
const errOverloaded = constError("service overloaded: concurrency bound reached, retry later")
