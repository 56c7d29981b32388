package main

// Spans recorded by the benchmark's own code around its calls into the
// program. A traced run wraps each layer boundary (HTTP handler, Backend
// method, shard hop, policy, oracle) in a span; a layer's self time is
// its span's duration minus the part of that interval its child spans
// cover. Spans stay in memory and are reduced when the run ends.

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanHeader carries the benchmark client's span id to the server it
// calls, so the server-side spans join the client's request tree.
const spanHeader = "X-Perfbench-Span"

type span struct {
	layer      string
	start, end time.Time

	mu       sync.Mutex
	children []*span
	// billed is work re-executed outside the span (the serve-miss
	// compute layers) that happened inside it when it was served; it is
	// subtracted from the self time like a child.
	billed time.Duration
}

// child opens a span nested in s. A nil s (untraced request) yields a
// nil child, and every span method accepts nil.
func (s *span) child(layer string) *span {
	if s == nil {
		return nil
	}
	c := &span{layer: layer, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

func (s *span) finish() {
	if s != nil {
		s.end = time.Now()
	}
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// self is the span's duration not covered by its children's intervals
// nor by billed re-executed work.
func (s *span) self() time.Duration {
	ivs := make([]*span, len(s.children))
	copy(ivs, s.children)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var covered time.Duration
	var curS, curE time.Time
	for _, c := range ivs {
		cs, ce := c.start, c.end
		if cs.Before(s.start) {
			cs = s.start
		}
		if ce.After(s.end) {
			ce = s.end
		}
		if !ce.After(cs) {
			continue
		}
		if curE.IsZero() || cs.After(curE) {
			covered += curE.Sub(curS)
			curS, curE = cs, ce
		} else if ce.After(curE) {
			curE = ce
		}
	}
	covered += curE.Sub(curS)
	return s.dur() - covered - s.billed
}

// tracer owns the request trees of one traced run.
type tracer struct {
	mu    sync.Mutex
	roots []*span
	byID  map[string]*span
	next  int
}

func newTracer() *tracer { return &tracer{byID: map[string]*span{}} }

// root opens a top-level span and returns the id under which servers
// can find it.
func (t *tracer) root(layer string) (*span, string) {
	s := &span{layer: layer, start: time.Now()}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots = append(t.roots, s)
	t.next++
	id := "pb-" + strconv.Itoa(t.next)
	t.byID[id] = s
	return s, id
}

func (t *tracer) register(id string, s *span) {
	t.mu.Lock()
	t.byID[id] = s
	t.mu.Unlock()
}

func (t *tracer) lookup(id string) *span {
	if id == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// selfTimes sums self time per layer over every recorded tree, plus
// the billed work per layer, and returns the summed root durations the
// self times break down.
func (t *tracer) selfTimes(billed map[string]time.Duration) (map[string]time.Duration, time.Duration) {
	out := map[string]time.Duration{}
	for layer, d := range billed {
		out[layer] += d
	}
	var total time.Duration
	var walk func(s *span)
	walk = func(s *span) {
		out[s.layer] += s.self()
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		total += r.dur()
		walk(r)
	}
	return out, total
}

type spanKey struct{}

func withSpan(ctx context.Context, s *span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) *span {
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// tracedHandler runs next under a child of the span whose id the
// request carries in header hdr; requests without one pass untraced.
func tracedHandler(t *tracer, layer, hdr string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := t.lookup(r.Header.Get(hdr)).child(layer)
		if s == nil {
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		s.finish()
	})
}
