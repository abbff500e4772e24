package main

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/goharness"
	"repro/internal/model"
	"repro/internal/progdsl"
	"repro/sct"
)

// tracedEngine is the registry name of the wrapper engine the traced
// run substitutes for every grid spec: "traced:<spec>" explores with
// <spec> while timing Explore, arming telemetry counters and a flight
// recorder, and counting the frontend calls the machine makes.
const tracedEngine = "traced"

// flightDepth is how many recent executions each traced search keeps
// for the model/hb ladder to replay.
const flightDepth = 8

// frontendStats counts the calls a machine makes into one program
// frontend and times one call in sampleEvery of each kind: reading the
// clock around every call would cost more than the calls themselves.
// (Sampling kinds apart matters: Peek and Resume alternate, so one
// shared counter would only ever time one of them.) Parallel searches
// call in from several goroutines.
type frontendStats struct {
	starts, peeks, resumes, snapshots atomic.Int64
	// sampledNS and sampledResumeNS sum the timed calls;
	// sampledResumes counts the timed Resume calls.
	sampledNS, sampledResumeNS, sampledResumes atomic.Int64
}

// sampleEvery is the frontend timing sample rate: one call in 16.
const sampleEvery = 16

// timed counts a call of the kind n counts and runs f, timing it when
// the call is one of the sampled ones; it reports the duration and
// whether it was sampled.
func (st *frontendStats) timed(n *atomic.Int64, f func()) (time.Duration, bool) {
	if n.Add(1)%sampleEvery != 0 {
		f()
		return 0, false
	}
	start := time.Now()
	f()
	d := time.Since(start)
	st.sampledNS.Add(int64(d))
	return d, true
}

// busy estimates the total time spent inside the frontend.
func (st *frontendStats) busy() time.Duration {
	return time.Duration(st.sampledNS.Load() * sampleEvery)
}

// nsPerResume is the mean sampled Resume duration.
func (st *frontendStats) nsPerResume() float64 {
	return ratio(float64(st.sampledResumeNS.Load()), float64(st.sampledResumes.Load()))
}

// searchTrace is what one traced Explore call recorded.
type searchTrace struct {
	program string
	busy    time.Duration
	counts  explore.Progress
	flight  []explore.FlightEntry
}

// tracer collects the traced searches of a run; the wrapper engine
// reports into it. Explore calls may overlap (parallel specs), so it
// locks.
type tracer struct {
	mu        sync.Mutex
	searches  []searchTrace
	frontends map[string]*frontendStats
	// heap, when set, replaces the tracing: the wrapper only probes
	// the live heap as each search finishes.
	heap *heapProbe
}

func newTracer() *tracer {
	return &tracer{frontends: map[string]*frontendStats{
		"progdsl":   {},
		"goharness": {},
	}}
}

// take returns and clears the searches recorded so far.
func (t *tracer) take() []searchTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.searches
	t.searches = nil
	return out
}

// frontend returns the stats of src's frontend, nil for frontends the
// benchmark does not attribute.
func (t *tracer) frontend(src model.Source) *frontendStats {
	switch src.(type) {
	case *progdsl.Program:
		return t.frontends["progdsl"]
	case *goharness.Program:
		return t.frontends["goharness"]
	}
	return nil
}

// heapProbe records how much live heap each probed search adds: the
// search collects garbage as it starts and again as it finishes, while
// its caches and dedup sets are at their fullest. Parallel searches are
// not probed — what is live when one of their workers finishes depends
// on the other workers' timing.
type heapProbe struct {
	mu    sync.Mutex
	added map[probeKey]uint64
}

// probeKey names one search: a program under one engine spec.
type probeKey struct{ program, spec string }

func newHeapProbe() *heapProbe { return &heapProbe{added: map[probeKey]uint64{}} }

// explore runs one probed search. A search probed again keeps its
// smaller measurement: stray garbage only ever adds to one.
func (h *heapProbe) explore(inner sct.Engine, spec string, src model.Source, opt explore.Options) explore.Result {
	start := settledHeap()
	// The observer's only delivery is the final one: the cadence
	// never fires.
	opt.Observer = &explore.Observer{
		EverySchedules: math.MaxInt,
		Every:          time.Duration(math.MaxInt64),
		OnProgress: func(explore.Progress) {
			end := settledHeap()
			added := end - min(start, end)
			k := probeKey{src.Name(), spec}
			h.mu.Lock()
			defer h.mu.Unlock()
			if old, ok := h.added[k]; !ok || added < old {
				h.added[k] = added
			}
		},
	}
	return inner.Explore(src, opt)
}

// top returns the n searches that added the most, largest first.
func (h *heapProbe) top(n int) []probeKey {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys := make([]probeKey, 0, len(h.added))
	for k := range h.added {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return h.added[keys[i]] > h.added[keys[j]] })
	return keys[:min(n, len(keys))]
}

// peak returns the most any probed search added.
func (h *heapProbe) peak() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var p uint64
	for _, added := range h.added {
		p = max(p, added)
	}
	return p
}

// active is the tracer the registered wrapper engine reports into. The
// registry is process-global, so the wrapper is registered once and
// reads the tracer through this table entry.
var active atomic.Pointer[tracer]

func init() {
	sct.Register(sct.EngineInfo{
		Name:    tracedEngine,
		Usage:   tracedEngine + ":<spec>",
		Summary: "benchmark wrapper: explores with <spec>, timing and counting every layer call",
		Build: func(argv []string) (sct.Engine, error) {
			spec := strings.Join(argv, ":")
			inner, err := sct.NewEngine(spec)
			if err != nil {
				return nil, err
			}
			return &traced{inner: inner, spec: spec}, nil
		},
	})
}

// tracedSpec names the wrapper around spec.
func tracedSpec(spec string) string { return tracedEngine + ":" + spec }

// traced wraps one engine instance.
type traced struct {
	inner sct.Engine
	spec  string
}

func (e *traced) Name() string { return e.inner.Name() }

func (e *traced) Explore(src model.Source, opt explore.Options) explore.Result {
	t := active.Load()
	if t == nil {
		return e.inner.Explore(src, opt)
	}
	if t.heap != nil {
		name, _, _ := strings.Cut(e.spec, ":")
		if parallel(name) {
			return e.inner.Explore(src, opt)
		}
		return t.heap.explore(e.inner, e.spec, src, opt)
	}
	if opt.Counters == nil {
		opt.Counters = explore.NewCounters()
	}
	if opt.Flight == nil {
		opt.Flight = explore.NewFlightRecorder(flightDepth)
	}
	if fs := t.frontend(src); fs != nil {
		src = &tracedSource{Source: src, st: fs}
	}
	start := time.Now()
	res := e.inner.Explore(src, opt)
	st := searchTrace{
		program: res.Program,
		busy:    time.Since(start),
		counts:  opt.Counters.Snapshot(),
		flight:  opt.Flight.Snapshot(),
	}
	t.mu.Lock()
	t.searches = append(t.searches, st)
	t.mu.Unlock()
	return res
}

// tracedSource forwards a Source and its optional interfaces, wrapping
// every coroutine it starts. InitStore and the channel universe are
// forwarded unconditionally: a no-op InitStore and an empty channel
// universe are exactly what the machine assumes for Sources without
// them.
type tracedSource struct {
	model.Source
	st *frontendStats
}

func (s *tracedSource) InitStore(store []int64) {
	if is, ok := s.Source.(model.InitStorer); ok {
		is.InitStore(store)
	}
}

func (s *tracedSource) NumChannels() int { return model.NumChannels(s.Source) }

func (s *tracedSource) ChannelCap(c int32) int {
	if cs, ok := s.Source.(model.ChannelSource); ok {
		return cs.ChannelCap(c)
	}
	return 0
}

func (s *tracedSource) Start(t event.ThreadID) model.Coroutine {
	var c model.Coroutine
	s.st.timed(&s.st.starts, func() { c = s.Source.Start(t) })
	return wrapCoroutine(c, s.st)
}

// wrapCoroutine wraps c so that the machine sees the same optional
// interfaces. Snapshottable is the one whose mere presence changes
// what the machine does (undo versus replay), so it gets its own
// wrapper type; the others fall back to exactly the machine's own
// behaviour when the inner coroutine lacks them.
func wrapCoroutine(c model.Coroutine, st *frontendStats) model.Coroutine {
	if c == nil {
		return nil
	}
	tc := tracedCoroutine{inner: c, st: st}
	if _, ok := c.(model.Snapshottable); ok {
		return &snapCoroutine{tc}
	}
	return &tc
}

type tracedCoroutine struct {
	inner model.Coroutine
	st    *frontendStats
}

func (c *tracedCoroutine) Peek() (op event.Op, ok bool) {
	c.st.timed(&c.st.peeks, func() { op, ok = c.inner.Peek() })
	return op, ok
}

func (c *tracedCoroutine) Resume(result int64) {
	if d, sampled := c.st.timed(&c.st.resumes, func() { c.inner.Resume(result) }); sampled {
		c.st.sampledResumeNS.Add(int64(d))
		c.st.sampledResumes.Add(1)
	}
}

// PeekTimeout forwards model.TimedPeeker; without it the machine would
// have called Peek.
func (c *tracedCoroutine) PeekTimeout(d time.Duration) (op event.Op, ok bool) {
	tp, timed := c.inner.(model.TimedPeeker)
	if !timed {
		return c.Peek()
	}
	c.st.timed(&c.st.peeks, func() { op, ok = tp.PeekTimeout(d) })
	return op, ok
}

// Abort forwards model.Abortable; without it the machine does nothing.
func (c *tracedCoroutine) Abort() {
	if a, ok := c.inner.(model.Abortable); ok {
		a.Abort()
	}
}

// AbortTimeout forwards model.TimedAborter; without it the machine
// would have fallen back to Abort.
func (c *tracedCoroutine) AbortTimeout(d time.Duration) {
	if ta, ok := c.inner.(model.TimedAborter); ok {
		ta.AbortTimeout(d)
		return
	}
	c.Abort()
}

// PanicMessage forwards model.PanicMessager; "" makes the machine fall
// back to the panic code, as it does without the interface.
func (c *tracedCoroutine) PanicMessage() string {
	if pm, ok := c.inner.(model.PanicMessager); ok {
		return pm.PanicMessage()
	}
	return ""
}

// snapCoroutine additionally forwards model.Snapshottable.
type snapCoroutine struct{ tracedCoroutine }

func (c *snapCoroutine) Snapshot() model.Coroutine {
	var cp model.Coroutine
	c.st.timed(&c.st.snapshots, func() { cp = c.inner.(model.Snapshottable).Snapshot() })
	return &snapCoroutine{tracedCoroutine{inner: cp, st: c.st}}
}
