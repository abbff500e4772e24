package explore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// TestDifferentialEngines is the broad cross-checking harness: for a
// wide sweep of seeded random programs, run every engine and check the
// relations that must hold between them regardless of whether the
// space is exhausted:
//
//   - every engine's invariant chain holds;
//   - bounded/unsound-by-design engines (random walk, bounded DFS)
//     find state *subsets* of exhaustive DFS;
//   - complete engines agree with DFS exactly when DFS exhausts the
//     space;
//   - the caching engines' lazy-class coverage is ordered
//     (lazy ≥ regular) under any shared budget.
//
// The programs are independent, so they run in parallel.
func TestDifferentialEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow in -short mode")
	}
	complete := []Engine{
		NewDPOR(false),
		NewDPOR(true),
		NewHBRCache(),
		NewLazyHBRCache(),
		NewLazyDPOR(),
	}
	bounded := []Engine{
		NewPreemptionBounded(1),
		NewDelayBounded(2),
		NewRandomWalk(7),
	}
	const probeLimit = 4000
	for seed := int64(500); seed < 560; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			src := genRandomProgram(seed)
			dfs := NewDFS().Explore(src, Options{ScheduleLimit: probeLimit, MaxSteps: 2000, RecordStates: true})
			if err := dfs.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
			exhausted := !dfs.HitLimit
			dfsStates := map[string]bool{}
			for _, s := range dfs.States {
				dfsStates[s] = true
			}

			for _, eng := range complete {
				res := eng.Explore(src, Options{ScheduleLimit: probeLimit, MaxSteps: 2000, RecordStates: true})
				if err := res.CheckInvariant(); err != nil {
					t.Errorf("%s: %v", eng.Name(), err)
				}
				if exhausted && !res.HitLimit {
					if res.DistinctStates != dfs.DistinctStates {
						t.Errorf("%s found %d states, dfs %d", eng.Name(), res.DistinctStates, dfs.DistinctStates)
					}
					for _, s := range res.States {
						if !dfsStates[s] {
							t.Errorf("%s found a state outside the exhaustive set: %s", eng.Name(), s)
						}
					}
				}
			}
			for _, eng := range bounded {
				res := eng.Explore(src, Options{ScheduleLimit: 500, MaxSteps: 2000, RecordStates: true})
				if err := res.CheckInvariant(); err != nil {
					t.Errorf("%s: %v", eng.Name(), err)
				}
				if exhausted {
					for _, s := range res.States {
						if !dfsStates[s] {
							t.Errorf("%s found a state outside the exhaustive set: %s", eng.Name(), s)
						}
					}
				}
			}

			for _, budget := range []int{20, 100} {
				reg := NewHBRCache().Explore(src, Options{ScheduleLimit: budget, MaxSteps: 2000})
				lazy := NewLazyHBRCache().Explore(src, Options{ScheduleLimit: budget, MaxSteps: 2000})
				if reg.DistinctLazyHBRs > lazy.DistinctLazyHBRs {
					t.Errorf("budget %d: regular caching covered more lazy classes (%d > %d)",
						budget, reg.DistinctLazyHBRs, lazy.DistinctLazyHBRs)
				}
			}
		})
	}
}

// frontendVariant is one logical program of the frontend oracles,
// built through buildDSLVariant and buildHarnessVariant.
type frontendVariant struct {
	name    string
	threads int
	locked  bool
	shared  bool
}

var frontendVariants = []frontendVariant{
	{"locked-shared-2", 2, true, true},
	{"racy-shared-2", 2, false, true},
	{"locked-private-3", 3, true, false},
	{"racy-private-2", 2, false, false},
}

// TestDifferentialFrontends builds the same logical programs through
// progdsl and goharness and checks both frontends induce identical
// schedule spaces under DPOR.
func TestDifferentialFrontends(t *testing.T) {
	for _, v := range frontendVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			dsl := buildDSLVariant(v.name, v.threads, v.locked, v.shared)
			gh := buildHarnessVariant(v.name, v.threads, v.locked, v.shared)
			eng := NewDPOR(false)
			dres := eng.Explore(dsl, Options{MaxSteps: 2000})
			hres := eng.Explore(gh, Options{MaxSteps: 2000})
			if dres.Schedules != hres.Schedules ||
				dres.DistinctHBRs != hres.DistinctHBRs ||
				dres.DistinctLazyHBRs != hres.DistinctLazyHBRs ||
				dres.DistinctStates != hres.DistinctStates {
				t.Errorf("frontends disagree:\n dsl=%v\n  gh=%v", dres.String(), hres.String())
			}
		})
	}
}

// TestDifferentialWatchdog is the oracle for the watchdog-armed path:
// with a stall timeout the harness switches into thread bodies from a
// helper goroutine under a timer, which must change nothing a search
// reports. Every harness variant gives a Result byte-identical to the
// untimed run under dfs, dpor and random.
func TestDifferentialWatchdog(t *testing.T) {
	for _, v := range frontendVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			src := buildHarnessVariant(v.name, v.threads, v.locked, v.shared)
			for _, eng := range []Engine{NewDFS(), NewDPOR(false), NewRandomWalk(5)} {
				opt := Options{MaxSteps: 2000, ScheduleLimit: 500, RecordStates: true}
				plain, err := json.Marshal(eng.Explore(src, opt))
				if err != nil {
					t.Fatal(err)
				}
				opt.StallTimeout = 10 * time.Second
				timed, err := json.Marshal(eng.Explore(src, opt))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(plain, timed) {
					t.Errorf("%s: the watchdog changed the Result:\n untimed=%s\n   timed=%s", eng.Name(), plain, timed)
				}
			}
		})
	}
}
