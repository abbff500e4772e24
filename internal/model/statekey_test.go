package model_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/event"
	"repro/internal/model"
	"repro/internal/progdsl"
)

// failuresProgram records up to four failures of every kind in a
// schedule-dependent order: two racy assertions, a lock misuse and a
// panic. No corpus program fails twice in one execution, so it is the
// walks' source of multi-failure states.
func failuresProgram() model.Source {
	b := progdsl.New("statekey-failures").AutoStart()
	x := b.Var("x")
	m := b.Mutex("m")
	b.Thread().Read(0, x).AssertEq(0, 0)
	b.Thread().WriteConst(x, 1)
	b.Thread().Read(0, x).AssertEq(0, 0)
	b.Thread().Unlock(m)
	b.Thread().Read(0, x).Panic(3)
	return b.Build()
}

// TestStateKeyMatchesFmt pins StateKey's encoding to the fmt
// reference renderer on every state of seeded random walks over the
// whole corpus, the hostile programs and failuresProgram. The walks
// must reach failures (several at once, so their canonical order
// shows), buffered and closed channels and every thread Status, so
// each part of the encoding is compared.
func TestStateKeyMatchesFmt(t *testing.T) {
	const walks, maxSteps = 50, 400
	progs := append(bench.All(), bench.Hostile()...)
	progs = append(progs, bench.Benchmark{Name: "statekey-failures", Program: failuresProgram()})
	hints := model.NewDivergeHints()
	var states, failed, multiFailed, buffered, closed int
	var status [model.Diverged + 1]int
	for i, b := range progs {
		var cfg model.MachineConfig
		if b.Name == "hostile-diverge" {
			// Only the watchdog can fence the spinning thread.
			cfg = model.MachineConfig{StallTimeout: 50 * time.Millisecond, Hints: hints}
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for w := 0; w < walks; w++ {
			m := model.NewMachineCfg(b.Program, cfg)
			for step := 0; ; step++ {
				states++
				if got, want := m.StateKey(), model.FmtStateKey(m); got != want {
					m.Abort()
					t.Fatalf("%s walk %d step %d:\n got %s\nwant %s", b.Name, w, step, got, want)
				}
				switch n := len(m.Failures()); {
				case n > 1:
					multiFailed++
					fallthrough
				case n == 1:
					failed++
				}
				for c := 0; c < m.NumChannels(); c++ {
					if m.ChanLen(int32(c)) > 0 {
						buffered++
					}
					if m.ChanClosed(int32(c)) {
						closed++
					}
				}
				for th := 0; th < m.NumThreads(); th++ {
					status[m.Status(event.ThreadID(th))]++
				}
				en := m.EnabledThreads(nil)
				if len(en) == 0 || step == maxSteps {
					break
				}
				m.Step(en[rng.Intn(len(en))])
			}
			m.Abort()
		}
	}
	t.Logf("%d states over %d programs", states, len(progs))
	if failed == 0 || multiFailed == 0 || buffered == 0 || closed == 0 {
		t.Errorf("walks missed part of the encoding: %d failed, %d multi-failure, %d buffered, %d closed states",
			failed, multiFailed, buffered, closed)
	}
	for s, n := range status {
		if n == 0 {
			t.Errorf("walks never reached a %s thread", model.Status(s))
		}
	}
}
