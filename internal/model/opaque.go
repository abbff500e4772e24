package model

import "repro/internal/event"

// Opaque wraps src so that its coroutines hide Snapshottable and
// SnapshotReuser: EnableUndo refuses the wrapped program, so engines
// explore it by replay, exactly as they explore a program whose
// frontend cannot snapshot. The name, the initial store and the
// channel universe are forwarded, so a wrapped snapshottable program
// executes identically. The coroutines' other optional interfaces
// (abort, panic messages, the watchdog's timed calls, reuse) are
// hidden too: only goroutine-backed coroutines have them, and those
// replay anyway.
// It is the replay side of the undo-versus-replay equivalence checks.
func Opaque(src Source) Source { return opaqueSource{src} }

type opaqueSource struct{ Source }

func (s opaqueSource) InitStore(store []int64) {
	if is, ok := s.Source.(InitStorer); ok {
		is.InitStore(store)
	}
}

func (s opaqueSource) NumChannels() int { return NumChannels(s.Source) }

// ChannelCap is only called for channels NumChannels announced, which
// exist only when src is a ChannelSource.
func (s opaqueSource) ChannelCap(c int32) int { return s.Source.(ChannelSource).ChannelCap(c) }

// Start wraps the coroutine in a struct that exposes only Peek and
// Resume.
func (s opaqueSource) Start(t event.ThreadID) Coroutine {
	return struct{ Coroutine }{s.Source.Start(t)}
}
