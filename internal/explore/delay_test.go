package explore

import "testing"

// TestDelayZeroIsSingleSchedule: with no delays the scheduler is fully
// deterministic, so exactly one schedule is explored.
func TestDelayZeroIsSingleSchedule(t *testing.T) {
	res := NewDelayBounded(0).Explore(curatedSharedCounter(), Options{})
	if res.Schedules != 1 {
		t.Errorf("db0 explored %d schedules, want 1", res.Schedules)
	}
}

// TestDelayGrowsWithBudget: terminals grow monotonically with the
// delay budget and converge to the exhaustive count.
func TestDelayGrowsWithBudget(t *testing.T) {
	src := curatedSharedCounter()
	dfs := NewDFS().Explore(src, Options{})
	prev := 0
	last := 0
	for bound := 0; bound <= 10; bound++ {
		res := NewDelayBounded(bound).Explore(src, Options{})
		if err := res.CheckInvariant(); err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if res.Terminals < prev {
			t.Errorf("bound %d shrank terminals: %d < %d", bound, res.Terminals, prev)
		}
		prev = res.Terminals
		last = res.Terminals
	}
	if last != dfs.Schedules {
		t.Errorf("a large delay budget must recover DFS: %d vs %d", last, dfs.Schedules)
	}
}

// TestDelayStateSubset: delay-bounded states are always a subset of the
// exhaustive set.
func TestDelayStateSubset(t *testing.T) {
	for _, src := range soundnessZoo()[:8] {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			full := exploreStates(t, NewDFS(), src)
			all := map[string]bool{}
			for _, s := range full.States {
				all[s] = true
			}
			for _, bound := range []int{0, 1, 3} {
				res := NewDelayBounded(bound).Explore(src, Options{MaxSteps: 2000, RecordStates: true})
				for _, s := range res.States {
					if !all[s] {
						t.Fatalf("db%d found state outside the exhaustive set", bound)
					}
				}
			}
		})
	}
}

// TestDelayVsPreemptionOrdering: a delay is at least as restrictive as
// a preemption (every delay-d schedule uses at most d preemptions), so
// db(d) explores no more terminals than pb(d).
func TestDelayVsPreemptionOrdering(t *testing.T) {
	for _, src := range soundnessZoo()[:6] {
		for d := 0; d <= 3; d++ {
			db := NewDelayBounded(d).Explore(src, Options{MaxSteps: 2000})
			pb := NewPreemptionBounded(d).Explore(src, Options{MaxSteps: 2000})
			if db.Terminals > pb.Terminals {
				t.Errorf("%s: db%d terminals %d > pb%d terminals %d",
					src.Name(), d, db.Terminals, d, pb.Terminals)
			}
		}
	}
}

// TestBoundedEngineNames pins the new names.
func TestBoundedEngineNames(t *testing.T) {
	if NewDelayBounded(2).Name() != "db2-dfs" {
		t.Error("delay name wrong")
	}
}

// TestNegativeBoundClampsToZero: the bounded constructors read a
// negative bound as 0, as NewPCT reads a depth below 1 as 1, so a
// negative bound can neither crash the search nor abandon paths.
func TestNegativeBoundClampsToZero(t *testing.T) {
	src := curatedSharedCounter()
	for _, pair := range [][2]Engine{
		{NewPreemptionBounded(-1), NewPreemptionBounded(0)},
		{NewDelayBounded(-1), NewDelayBounded(0)},
	} {
		got, want := pair[0].Explore(src, Options{}), pair[1].Explore(src, Options{})
		if got.Engine != want.Engine || countersOf(got) != countersOf(want) {
			t.Errorf("%s explored %+v, want %s's %+v", got.Engine, countersOf(got), want.Engine, countersOf(want))
		}
	}
}
