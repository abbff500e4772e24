// Boundedsearch: CHESS-style bounded exploration in practice. Most
// concurrency bugs need very few preemptions (Musuvathi & Qadeer), so
// raising the preemption bound one step at a time — CHESS's iterative
// context bounding, written here as a loop over pb:0, pb:1, ... —
// finds them after a tiny fraction of the exhaustive work.
//
//	go run ./examples/boundedsearch
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sct"
)

// workPool builds a properly-locked job pool with an atomicity bug:
// the worker publishes done=1 in its first critical section but only
// writes the final result in a second one. A reader scheduled between
// the two critical sections observes done=1 with the provisional
// result — an interleaving that requires preempting the worker between
// its unlocks, i.e. exactly one preemption. There are no data races:
// every access is lock-protected, so only systematic exploration (not
// a race detector) can find this.
func workPool(extraWorkers int) *sct.Program {
	p := sct.NewProgram("workpool").AutoStart()
	mu := p.Mutex("mu")
	result := p.Var("result")
	done := p.Var("done")
	p.Thread(func(g *sct.G) { // the buggy worker
		g.Lock(mu)
		g.Write(result, 21) // provisional
		g.Write(done, 1)    // published too early: the bug
		g.Unlock(mu)
		g.Lock(mu)
		g.Write(result, 42) // final
		g.Unlock(mu)
	})
	p.Thread(func(g *sct.G) { // auditor
		g.Lock(mu)
		d := g.Read(done)
		r := g.Read(result)
		g.Unlock(mu)
		if d == 1 {
			g.Assert(r == 42)
		}
	})
	// Bystander workers enlarge the schedule space without touching
	// the bug, making the exhaustive-vs-bounded contrast visible.
	scratch := p.Var("scratch")
	for i := 0; i < extraWorkers; i++ {
		p.Thread(func(g *sct.G) {
			g.Lock(mu)
			g.Write(scratch, g.Read(scratch)+1)
			g.Unlock(mu)
		})
	}
	return p
}

func main() {
	ctx := context.Background()
	fmt.Println("engine                      schedules  violation")
	report := func(spec string) *sct.Report {
		rep, err := sct.Run(ctx, workPool(3), spec, sct.WithScheduleLimit(1000000))
		if err != nil {
			log.Fatal(err)
		}
		verdict := "none found"
		if rep.Violation != nil {
			verdict = rep.Violation.String()
		}
		fmt.Printf("%-26s %10d  %s\n", spec, rep.Schedules, verdict)
		return rep
	}
	// Iterative context bounding: each round searches the whole space
	// of its bound, and the first round that sees a violation names the
	// fewest preemptions the bug needs.
	for bound := 0; bound <= 3; bound++ {
		if report(fmt.Sprintf("pb:%d", bound)).Violation != nil {
			break
		}
	}
	for _, spec := range []string{"dpor", "lazy-dpor", "dfs"} {
		report(spec)
	}
	fmt.Println("\nNo schedule has a data race (every access is locked); the bug is an")
	fmt.Println("atomicity violation needing exactly one preemption. pb:0 cannot see it,")
	fmt.Println("pb:1 finds it almost immediately, exhaustive DFS pays the whole space.")
}
