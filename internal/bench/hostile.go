package bench

import (
	"time"

	"repro/internal/goharness"
	"repro/internal/model"
)

// HostileIDBase offsets hostile-benchmark IDs far above the 88-entry
// corpus, so the two ID spaces can never collide.
const HostileIDBase = 1000

// hostileEntries lists the fault-injection programs: benchmarks whose
// thread bodies panic or diverge on purpose, for exercising the
// harness's fault containment (panic-as-violation capture, the stall
// watchdog, campaign survivability). They are deliberately NOT part of
// All()/Names()/Count — the corpus is pinned at Count entries and the
// figure pipelines must never sweep a program that panics by design —
// but ByName resolves them, so campaign cells and tests can target
// them explicitly.
func hostileEntries() []entry {
	return []entry{
		{
			name:   "hostile-panic",
			family: "hostile",
			notes:  "racy panic: the victim thread panics only in schedules where it observes the writer's store — the panic-as-violation analogue of a racy assertion",
			build:  hostilePanic,
		},
		{
			name:   "hostile-panic-always",
			family: "hostile",
			notes:  "unconditional panic: every schedule's first visible operation of thread 0 is a panic",
			build:  hostilePanicAlways,
		},
		{
			name:   "hostile-diverge",
			family: "hostile",
			notes:  "racy divergence: the victim thread enters an infinite local loop only in schedules where it observes the writer's store; requires a stall timeout to explore",
			build:  hostileDiverge,
		},
	}
}

// Hostile builds the hostile corpus with IDs HostileIDBase+1 upward.
func Hostile() []Benchmark {
	es := hostileEntries()
	out := make([]Benchmark, len(es))
	for i, e := range es {
		out[i] = e.benchmark(HostileIDBase + i + 1)
	}
	return out
}

// hostilePanic: t0 stores x=1; t1 panics iff its read observes the
// store. Interleavings where t1 reads first terminate cleanly, so a
// systematic engine must both find the panic and keep counting the
// healthy schedules.
func hostilePanic() model.Source {
	p := goharness.New("hostile-panic").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *goharness.G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *goharness.G) {
		if g.Read(x) == 1 {
			panic("hostile: observed the racy store")
		}
		g.Write(done, 1)
	})
	return p
}

// hostilePanicAlways panics on every schedule: the minimal program for
// pinning the panic → witness → artifact → replay pipeline.
func hostilePanicAlways() model.Source {
	p := goharness.New("hostile-panic-always").AutoStart()
	x := p.Var("x")
	p.Thread(func(g *goharness.G) {
		panic("hostile: unconditional")
	})
	p.Thread(func(g *goharness.G) {
		g.Write(x, 1)
	})
	return p
}

// hostileDiverge: t1 spins forever in local computation iff its read
// observes t0's store. Without a stall timeout this program hangs any
// engine; with one, the diverging schedules are fenced and counted
// while the read-first schedules complete normally. The loop sleeps so
// the one abandoned goroutine per exploration idles instead of
// burning a core.
func hostileDiverge() model.Source {
	p := goharness.New("hostile-diverge").AutoStart()
	x := p.Var("x")
	done := p.Var("done")
	p.Thread(func(g *goharness.G) {
		g.Write(x, 1)
	})
	p.Thread(func(g *goharness.G) {
		if g.Read(x) == 1 {
			for {
				time.Sleep(time.Millisecond)
			}
		}
		g.Write(done, 1)
	})
	return p
}
