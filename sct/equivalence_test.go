package sct_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/progdsl"
	"repro/sct"
)

// equivalenceZoo collects small exhaustively explorable programs that
// between them exercise every edge type the engines reason about —
// the facade's slice of the soundness zoo.
func equivalenceZoo() []sct.Source {
	var zoo []sct.Source

	zoo = append(zoo, racyCounter(), deadlocker())

	// Disjoint data under one coarse lock: the lazy relation's
	// headline case.
	b := progdsl.New("coarse-disjoint").AutoStart()
	mu := b.Mutex("mu")
	for i := 0; i < 3; i++ {
		v := b.Var("cell")
		b.Thread().Lock(mu).Read(0, v).AddConst(0, 0, 1).Write(v, 0).Unlock(mu)
	}
	zoo = append(zoo, b.Build())

	// Spawn/join shape: the initial thread forks workers over shared
	// state and audits it.
	s := progdsl.New("fork-audit")
	x := s.Var("x")
	t0 := s.Thread()
	w1 := s.Thread().Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	w2 := s.Thread().Write(x, 7)
	t0.Spawn(w1).Spawn(w2).Join(w1).Join(w2).Read(0, x)
	zoo = append(zoo, s.Build())

	return zoo
}

// TestFacadeVsDirectEquivalence is the facade acceptance gate: for
// every engine reachable through sct.Run, the facade produces
// byte-identical Result counters to the pre-facade direct invocation
// (constructor + explore.Options) across the zoo.
//
// For the parallel engines the Events counter and the Steal
// statistics depend on runtime work distribution (they differ between
// any two runs, facade or not); every coverage and violation counter
// must still match byte for byte, so those two fields are normalised
// before comparing.
func TestFacadeVsDirectEquivalence(t *testing.T) {
	limit, maxSteps := 20000, 2000
	if testing.Short() {
		// The comparison is facade-vs-direct under identical options,
		// so a reduced budget weakens nothing — both sides hit the
		// same limit at the same schedule.
		limit = 1500
	}
	directs := []struct {
		spec     string
		parallel bool
		build    func() explore.Engine
	}{
		{"dfs", false, explore.NewDFS},
		{"dpor", false, func() explore.Engine { return explore.NewDPOR(false) }},
		{"dpor+sleep", false, func() explore.Engine { return explore.NewDPOR(true) }},
		{"lazy-dpor", false, explore.NewLazyDPOR},
		{"hbr-caching", false, explore.NewHBRCache},
		{"lazy-hbr-caching", false, explore.NewLazyHBRCache},
		{"random", false, func() explore.Engine { return explore.NewRandomWalk(1) }},
		{"random:7", false, func() explore.Engine { return explore.NewRandomWalk(7) }},
		{"pct:3", false, func() explore.Engine { return explore.NewPCT(1, 3) }},
		{"pct:2:9", false, func() explore.Engine { return explore.NewPCT(9, 2) }},
		{"pos", false, func() explore.Engine { return explore.NewPOS(1) }},
		{"pos:9", false, func() explore.Engine { return explore.NewPOS(9) }},
		{"pb:2", false, func() explore.Engine { return explore.NewPreemptionBounded(2) }},
		{"db:2", false, func() explore.Engine { return explore.NewDelayBounded(2) }},
		{"pdpor:1", true, func() explore.Engine { return campaign.NewParallelDPOR(1) }},
		{"pdpor:2", true, func() explore.Engine { return campaign.NewParallelDPOR(2) }},
	}

	// Every registered built-in engine must be covered by the pin
	// (new registrations must extend this test).
	covered := map[string]bool{}
	for _, d := range directs {
		name := d.spec
		for i := range name {
			if name[i] == ':' {
				name = name[:i]
				break
			}
		}
		covered[name] = true
	}
	for _, info := range sct.Engines() {
		if strings.HasPrefix(info.Name, "custom-") {
			continue // test-local registrations (process-global registry)
		}
		if !covered[info.Name] {
			t.Errorf("registered engine %q has no facade-vs-direct pin", info.Name)
		}
	}

	for _, src := range equivalenceZoo() {
		for _, d := range directs {
			rep, err := sct.Run(context.Background(), src, d.spec, sct.WithBounds(limit, maxSteps))
			if err != nil {
				t.Errorf("%s/%s: facade: %v", src.Name(), d.spec, err)
				continue
			}
			want := d.build().Explore(src, explore.Options{ScheduleLimit: limit, MaxSteps: maxSteps})
			got := rep.Result
			if d.parallel {
				got.Events, want.Events = 0, 0
				got.Steal, want.Steal = nil, nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: facade result diverges from direct invocation\n facade: %+v\n direct: %+v",
					src.Name(), d.spec, got, want)
			}
		}
	}
}
