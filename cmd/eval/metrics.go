package main

import (
	"expvar"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"sync"
	"sync/atomic"

	"repro/sct"
)

// evalCounters is the process-wide aggregate the -metrics endpoint
// serves under /debug/vars: completed-cell totals across every
// campaign run in this process, in any mode. It is fed from the result
// stream, so it counts finished work; heartbeats cover the in-flight
// cells.
var evalCounters struct {
	cellsDone   atomic.Int64
	cellsFailed atomic.Int64
	schedules   atomic.Int64
	events      atomic.Int64
}

// publishOnce guards expvar registration: expvar.Publish panics on
// duplicate names, and run() is re-entered by tests.
var publishOnce sync.Once

// metricsAddr records the listener's resolved address (meaningful
// with ":0"); tests read it to reach the endpoint in-process.
var metricsAddr atomic.Value // string

// recordCellMetrics folds one finished cell into the expvar
// aggregate. Unconditional and lock-free, so it costs a few atomic
// adds per cell even when no endpoint is listening.
func recordCellMetrics(r sct.CellResult) {
	evalCounters.cellsDone.Add(1)
	if r.Err != "" {
		evalCounters.cellsFailed.Add(1)
	}
	evalCounters.schedules.Add(int64(r.Result.Schedules))
	evalCounters.events.Add(r.Result.Events)
}

// serveMetrics starts the observability endpoint: expvar counters on
// /debug/vars and the net/http/pprof profiles on /debug/pprof/. The
// listener lives for the rest of the process — metrics have process
// lifetime, like pprof itself — and the resolved address is returned
// (and kept in metricsAddr) so ":0" callers can find it.
func serveMetrics(addr string) (string, error) {
	publishOnce.Do(func() {
		expvar.Publish("eval.cells_done", expvar.Func(func() any { return evalCounters.cellsDone.Load() }))
		expvar.Publish("eval.cells_failed", expvar.Func(func() any { return evalCounters.cellsFailed.Load() }))
		expvar.Publish("eval.schedules", expvar.Func(func() any { return evalCounters.schedules.Load() }))
		expvar.Publish("eval.events", expvar.Func(func() any { return evalCounters.events.Load() }))
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	resolved := ln.Addr().String()
	metricsAddr.Store(resolved)
	go func() { _ = http.Serve(ln, nil) }() // nil = DefaultServeMux (expvar + pprof handlers)
	return resolved, nil
}
