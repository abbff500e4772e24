package main

import (
	"time"

	"repro/internal/event"
	"repro/internal/exec"
	"repro/internal/hb"
	"repro/internal/model"
	"repro/sct"
)

// schedule is one recorded execution prefix of a workload program.
type schedule struct {
	src     sct.Source
	choices []event.ThreadID
}

// ladderSample takes the most recent executions of every traced search,
// as many from each as make about target in total (at least one each).
func ladderSample(searches []searchTrace, lookup func(string) sct.Source, target int) []schedule {
	per := max(1, target/max(1, len(searches)))
	var out []schedule
	for _, s := range searches {
		src := lookup(s.program)
		for k := 0; k < per && k < len(s.flight); k++ {
			if e := s.flight[len(s.flight)-1-k]; src != nil && len(e.Choices) > 0 {
				out = append(out, schedule{src, e.Choices})
			}
		}
	}
	return out
}

// ladder is the per-layer cost of re-executing recorded schedules,
// one rung at a time: machine construction, machine steps (with
// enabledness), state digests, tracker applies, and the undo rewinds
// of both, then a whole single-execution replay.
type ladder struct {
	machines, events, undoEvents, sigs, replays int
	newMachine, step, stateSig                  time.Duration
	apply, undoModel, undoHB, replay            time.Duration
}

// sigReps repeats each StateSig call to lift it above timer
// resolution.
const sigReps = 16

func runLadder(sample []schedule) ladder {
	var l ladder
	var enabled []event.ThreadID
	evs := make([]event.Event, 0, 256)
	for _, s := range sample {
		src := s.src
		start := time.Now()
		m := model.NewMachine(src)
		l.newMachine += time.Since(start)
		l.machines++

		evs = evs[:0]
		start = time.Now()
		for _, t := range s.choices {
			enabled = m.EnabledThreads(enabled)
			evs = append(evs, m.Step(t))
		}
		l.step += time.Since(start)
		l.events += len(evs)

		start = time.Now()
		for i := 0; i < sigReps; i++ {
			_ = m.StateSig()
		}
		l.stateSig += time.Since(start)
		l.sigs += sigReps
		m.Abort()

		// The tracker is timed as exploration uses it: applying onto a
		// rewound tracker whose clock arena is already allocated.
		tr := hb.NewTrackerChans(src.NumThreads(), src.NumVars(), src.NumMutexes(), model.NumChannels(src))
		tr.EnableUndo()
		for _, ev := range evs {
			tr.ApplyFast(ev)
		}
		start = time.Now()
		tr.UndoTo(0)
		l.undoHB += time.Since(start)
		start = time.Now()
		for _, ev := range evs {
			tr.ApplyFast(ev)
		}
		l.apply += time.Since(start)

		// Undo needs snapshottable coroutines; the goroutine harness
		// has none and always backtracks by replay.
		um := model.NewMachine(src)
		if um.EnableUndo() {
			for _, t := range s.choices {
				um.Step(t)
			}
			start = time.Now()
			um.UndoTo(0)
			l.undoModel += time.Since(start)
			l.undoEvents += len(s.choices)
		}
		um.Abort()

		start = time.Now()
		exec.Replay(src, s.choices, exec.Options{})
		l.replay += time.Since(start)
		l.replays++
	}
	return l
}

func perOp(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

func (l ladder) metrics(put func(name string, v float64, unit string)) {
	put("model.new_machine_us", perOp(l.newMachine, l.machines, time.Microsecond), "us")
	put("model.step_ns", perOp(l.step, l.events, time.Nanosecond), "ns")
	put("model.undo_ns", perOp(l.undoModel, l.undoEvents, time.Nanosecond), "ns")
	put("model.state_sig_ns", perOp(l.stateSig, l.sigs, time.Nanosecond), "ns")
	put("hb.apply_ns", perOp(l.apply, l.events, time.Nanosecond), "ns")
	put("hb.undo_ns", perOp(l.undoHB, l.events, time.Nanosecond), "ns")
	put("exec.replay_us", perOp(l.replay, l.replays, time.Microsecond), "us")
}
