package explore

import (
	"testing"

	"repro/internal/progdsl"
)

// TestPBoundZeroIsNonPreemptive: with bound 0 the search only switches
// threads at blocking or terminating operations.
func TestPBoundZeroIsNonPreemptive(t *testing.T) {
	// Two independent straight-line threads: without preemptions the
	// only schedules run one thread to completion, then the other —
	// plus nothing else (switching mid-thread costs a preemption).
	b := progdsl.New("pb0").AutoStart()
	x := b.Var("x")
	y := b.Var("y")
	t1 := b.Thread()
	t1.WriteConst(x, 1).WriteConst(x, 2)
	t2 := b.Thread()
	t2.WriteConst(y, 1).WriteConst(y, 2)
	res := NewPreemptionBounded(0).Explore(b.Build(), Options{})
	if res.Schedules != 2 {
		t.Errorf("pb0 explored %d schedules, want 2 (t1-first, t2-first)", res.Schedules)
	}
	if res.SleepBlocked != 0 {
		t.Errorf("pb0 abandoned %d paths on a free space", res.SleepBlocked)
	}
}

// TestPBoundGrowsWithBudget: more preemptions, more schedules, up to
// the unbounded DFS count.
func TestPBoundGrowsWithBudget(t *testing.T) {
	src := curatedSharedCounter()
	dfs := NewDFS().Explore(src, Options{})
	prev := 0
	for bound := 0; bound <= 8; bound++ {
		res := NewPreemptionBounded(bound).Explore(src, Options{})
		if err := res.CheckInvariant(); err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if res.Terminals < prev {
			t.Errorf("bound %d completed %d terminals, fewer than bound %d's %d",
				bound, res.Terminals, bound-1, prev)
		}
		prev = res.Terminals
		if res.Terminals > dfs.Schedules {
			t.Errorf("bound %d exceeded exhaustive count", bound)
		}
	}
	if prev != dfs.Schedules {
		t.Errorf("a large budget must recover exhaustive DFS: %d vs %d", prev, dfs.Schedules)
	}
}

// TestPBoundFindsShallowBugs: the classic CHESS claim — most bugs need
// few preemptions. The racy counter's lost update needs exactly one.
func TestPBoundFindsShallowBugs(t *testing.T) {
	b := progdsl.New("lostupdate").AutoStart()
	x := b.Var("x")
	for i := 0; i < 2; i++ {
		th := b.Thread()
		th.Read(0, x).AddConst(0, 0, 1).Write(x, 0)
	}
	zero := NewPreemptionBounded(0).Explore(b.Build(), Options{RecordStates: true})
	if zero.DistinctStates != 1 {
		t.Errorf("pb0 found %d states; the lost update needs a preemption", zero.DistinctStates)
	}
	one := NewPreemptionBounded(1).Explore(b.Build(), Options{RecordStates: true})
	if one.DistinctStates != 2 {
		t.Errorf("pb1 found %d states, want 2 (correct and lost-update)", one.DistinctStates)
	}
}

// TestPBoundNames pins the reported engine names.
func TestPBoundNames(t *testing.T) {
	if got := NewPreemptionBounded(3).Name(); got != "pb3-dfs" {
		t.Errorf("name = %q", got)
	}
}

// TestPBoundStateSubset: bounded exploration finds a subset of the
// exhaustive states, converging as the bound rises, on the zoo.
func TestPBoundStateSubset(t *testing.T) {
	for _, src := range soundnessZoo()[:8] {
		src := src
		t.Run(src.Name(), func(t *testing.T) {
			full := exploreStates(t, NewDFS(), src)
			all := map[string]bool{}
			for _, s := range full.States {
				all[s] = true
			}
			prevCount := -1
			for _, bound := range []int{0, 1, 2, 16} {
				res := NewPreemptionBounded(bound).Explore(src, Options{MaxSteps: 2000, RecordStates: true})
				for _, s := range res.States {
					if !all[s] {
						t.Fatalf("bound %d found state outside the exhaustive set: %s", bound, s)
					}
				}
				if res.DistinctStates < prevCount {
					t.Errorf("state count shrank when budget grew at bound %d", bound)
				}
				prevCount = res.DistinctStates
			}
			if prevCount != full.DistinctStates {
				t.Errorf("bound 16 found %d states, exhaustive %d", prevCount, full.DistinctStates)
			}
		})
	}
}

// TestPBoundLimitHonoured: the schedule limit applies.
func TestPBoundLimitHonoured(t *testing.T) {
	res := NewPreemptionBounded(4).Explore(curatedSharedCounter(), Options{ScheduleLimit: 3})
	if res.Schedules != 3 || !res.HitLimit {
		t.Errorf("schedules=%d hitLimit=%v", res.Schedules, res.HitLimit)
	}
}
