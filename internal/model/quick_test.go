package model

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/event"
)

// genScript builds a random but well-formed script source: locks are
// properly paired per thread, spawns/joins are acyclic (only thread 0
// spawns), and all object indices are in range.
func genScript(r *rand.Rand) *scriptSource {
	nthreads := 1 + r.Intn(3)
	nvars := 1 + r.Intn(3)
	nmutexes := 1 + r.Intn(2)
	src := &scriptSource{
		name:    "quick",
		vars:    nvars,
		mutexes: nmutexes,
		initial: allThreads(nthreads),
	}
	for t := 0; t < nthreads; t++ {
		var ops []event.Op
		nops := r.Intn(5)
		for i := 0; i < nops; i++ {
			switch r.Intn(4) {
			case 0:
				ops = append(ops, rd(int32(r.Intn(nvars))))
			case 1:
				ops = append(ops, wr(int32(r.Intn(nvars)), int64(r.Intn(5))))
			case 2:
				m := int32(r.Intn(nmutexes))
				ops = append(ops, lk(m), ul(m))
			default:
				ops = append(ops, as(int64(r.Intn(2))))
			}
		}
		src.threads = append(src.threads, ops)
	}
	return src
}

// runRandomly drives the machine with a seeded random scheduler until
// no thread is enabled, returning the step count.
func runRandomly(m *Machine, r *rand.Rand) int {
	steps := 0
	for {
		en := m.EnabledThreads(nil)
		if len(en) == 0 {
			return steps
		}
		m.Step(en[r.Intn(len(en))])
		steps++
		if steps > 10000 {
			panic("model quick test: runaway execution")
		}
	}
}

// TestQuickMachineTerminates: with well-paired locks and no joins,
// every schedule terminates with all threads done and all mutexes free.
func TestQuickMachineTerminates(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genScript(r)
		m := NewMachine(src)
		total := 0
		for _, ops := range src.threads {
			total += len(ops)
		}
		steps := runRandomly(m, r)
		if steps != total {
			return false
		}
		if !m.Terminated() || m.Deadlocked() {
			return false
		}
		for mu := 0; mu < src.mutexes; mu++ {
			if m.Owner(int32(mu)) != NoOwner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEnabledIsSteppable: whatever Enabled reports must be
// steppable without panicking, and stepping never enables a terminated
// thread.
func TestQuickEnabledIsSteppable(t *testing.T) {
	f := func(seed int64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		r := rand.New(rand.NewSource(seed))
		m := NewMachine(genScript(r))
		for {
			en := m.EnabledThreads(nil)
			if len(en) == 0 {
				break
			}
			for _, tid := range en {
				if m.Status(tid) == Done {
					return false
				}
			}
			m.Step(en[r.Intn(len(en))])
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSnapshotEquivalence: a snapshot taken mid-execution and
// driven by the same choice sequence reaches the same state as the
// original.
func TestQuickSnapshotEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genScript(r)
		m := NewMachine(src)
		// Run a random prefix.
		for i := 0; i < 3; i++ {
			en := m.EnabledThreads(nil)
			if len(en) == 0 {
				break
			}
			m.Step(en[r.Intn(len(en))])
		}
		snap, ok := m.Snapshot()
		if !ok {
			return false
		}
		// Drive both with the same deterministic policy.
		for {
			en := m.EnabledThreads(nil)
			if len(en) == 0 {
				break
			}
			m.Step(en[0])
		}
		for {
			en := snap.EnabledThreads(nil)
			if len(en) == 0 {
				break
			}
			snap.Step(en[0])
		}
		return m.StateKey() == snap.StateKey() && m.StateSig() == snap.StateSig()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickStateKeyHashConsistency: equal keys imply equal
// signatures across random schedule pairs of the same program.
func TestQuickStateKeyHashConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := genScript(r)
		r1 := rand.New(rand.NewSource(seed + 1))
		r2 := rand.New(rand.NewSource(seed + 2))
		m1 := NewMachine(src)
		runRandomly(m1, r1)
		m2 := NewMachine(src)
		runRandomly(m2, r2)
		if m1.StateKey() == m2.StateKey() {
			return m1.StateSig() == m2.StateSig()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
