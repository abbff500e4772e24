package sct_test

import (
	"context"
	"fmt"
	"log"

	"repro/sct"
)

// ExampleRun is the embedding quickstart: build a program under test
// from Go closures, explore every schedule with DPOR + sleep sets,
// and capture the lost-update bug as a minimized, replayable
// counterexample.
func ExampleRun() {
	// Two workers increment a shared counter without locking; the
	// initial thread joins them and audits the count. One increment
	// can be lost — but only under specific interleavings.
	p := sct.NewProgram("lost-update")
	counter := p.Var("counter")

	var workers []sct.ThreadRef
	p.Thread(func(g *sct.G) {
		for _, w := range workers {
			g.Spawn(w)
		}
		for _, w := range workers {
			g.Join(w)
		}
		g.Assert(g.Read(counter) == int64(len(workers)))
	})
	for i := 0; i < 2; i++ {
		workers = append(workers, p.Thread(func(g *sct.G) {
			v := g.Read(counter)
			g.Write(counter, v+1)
		}))
	}

	rep, err := sct.Run(context.Background(), p, "dpor+sleep",
		sct.WithScheduleLimit(10000))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schedules=%d distinct-states=%d\n", rep.Schedules, rep.DistinctStates)
	if rep.Violation == nil {
		fmt.Println("no violation")
		return
	}
	fmt.Printf("violation=%q\n", rep.Violation.Kind)

	// Package the violation as a portable artifact: minimize it,
	// save it, and replay it deterministically any time (also via
	// sct.Load from disk).
	cx, err := rep.Counterexample()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cx.Minimize(); err != nil {
		log.Fatal(err)
	}
	if _, err := cx.Replay(p); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reproduced %q in %d steps\n", cx.Kind(), len(cx.Choices()))

	// Output:
	// schedules=6 distinct-states=2
	// violation="data race"
	// reproduced "data race" in 10 steps
}

// ExampleRun_lazyReduction shows the paper's headline effect: under
// coarse-grained locking over disjoint data, the lazy relation
// collapses all lock orders into one equivalence class.
func ExampleRun_lazyReduction() {
	p := sct.NewProgram("example-coarse").AutoStart()
	mu := p.Mutex("mu")
	cells := []sct.Var{p.Var("a"), p.Var("b"), p.Var("c")}
	for i := 0; i < 3; i++ {
		p.Thread(func(g *sct.G) {
			g.Lock(mu)
			g.Write(cells[i], g.Read(cells[i])+1)
			g.Unlock(mu)
		})
	}
	rep, err := sct.Run(context.Background(), p, "dpor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hbrs=%d lazy=%d states=%d\n",
		rep.DistinctHBRs, rep.DistinctLazyHBRs, rep.DistinctStates)
	lazy, err := sct.Run(context.Background(), p, "lazy-dpor")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lazy-dpor schedules=%d\n", lazy.Schedules)
	// Output:
	// hbrs=6 lazy=1 states=1
	// lazy-dpor schedules=1
}
