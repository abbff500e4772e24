package explore

import (
	"hash/fnv"
	"testing"

	"repro/internal/bench"
	"repro/internal/event"
)

// samplerPin is one sampler run's observable outcome: the counters a
// campaign cell reports plus a digest of the first-bug witness.
type samplerPin struct {
	schedules, firstBug, hbrs, lazy, states int
	events                                  int64
	witness                                 uint64
}

func pinOf(r Result) samplerPin {
	return samplerPin{r.Schedules, r.FirstBugSchedule, r.DistinctHBRs,
		r.DistinctLazyHBRs, r.DistinctStates, r.Events, choicesDigest(r.FirstViolation)}
}

// choicesDigest is an FNV-1a digest of a schedule; 0 for none.
func choicesDigest(cs []event.ThreadID) uint64 {
	if len(cs) == 0 {
		return 0
	}
	h := fnv.New64a()
	for _, c := range cs {
		h.Write([]byte{byte(c)})
	}
	return h.Sum64()
}

func samplerBySpec(spec string, seed int64) Engine {
	switch spec {
	case "random":
		return NewRandomWalk(seed)
	case "pct":
		return NewPCT(seed, 3)
	case "pos":
		return NewPOS(seed)
	}
	panic("unknown sampler " + spec)
}

func benchProgram(t testing.TB, name string) bench.Benchmark {
	t.Helper()
	bm, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("missing benchmark %s", name)
	}
	return bm
}

// TestSamplerStreamsPinned pins the walk streams of random:7, pct:3:7
// and pos:7 on one clean and two buggy corpus programs, with and
// without StopAtFirstBug. Every walk's schedule is a pure function of
// (seed, walk index), so any change to how a walk draws its random
// numbers — the rng's seeding, its source, the draw order — moves
// these values; a change that only reorganises rng allocation must
// leave every one of them as it is.
func TestSamplerStreamsPinned(t *testing.T) {
	golden := []struct {
		spec, prog string
		stop       bool
		want       samplerPin
	}{
		{"random", "chan-mesh-2p2c", false, samplerPin{300, 0, 179, 179, 5, 3000, 0}},
		{"pct", "chan-mesh-2p2c", false, samplerPin{300, 0, 62, 62, 5, 3000, 0}},
		{"pos", "chan-mesh-2p2c", false, samplerPin{300, 0, 175, 175, 5, 3000, 0}},
		{"random", "chan-mesh-2p2c", true, samplerPin{300, 0, 179, 179, 5, 3000, 0}},
		{"pct", "chan-mesh-2p2c", true, samplerPin{300, 0, 62, 62, 5, 3000, 0}},
		{"pos", "chan-mesh-2p2c", true, samplerPin{300, 0, 175, 175, 5, 3000, 0}},
		{"random", "philosophers-3", false, samplerPin{300, 4, 6, 2, 2, 3870, 0xd0aa6318672cf75e}},
		{"pct", "philosophers-3", false, samplerPin{300, 16, 7, 2, 2, 5145, 0xd0a3991867273472}},
		{"pos", "philosophers-3", false, samplerPin{300, 5, 7, 2, 2, 4455, 0xd0aa6318672cf75e}},
		{"random", "philosophers-3", true, samplerPin{4, 4, 3, 2, 2, 57, 0xd0aa6318672cf75e}},
		{"pct", "philosophers-3", true, samplerPin{16, 16, 6, 2, 2, 273, 0xd0a3991867273472}},
		{"pos", "philosophers-3", true, samplerPin{5, 5, 5, 2, 2, 75, 0xd0aa6318672cf75e}},
		{"random", "synth-08", false, samplerPin{300, 1, 61, 3, 2, 11700, 0x2863fce7f3feecca}},
		{"pct", "synth-08", false, samplerPin{300, 3, 78, 3, 2, 11700, 0xecb5ca19817ea316}},
		{"pos", "synth-08", false, samplerPin{300, 2, 125, 3, 2, 11700, 0x74e68c9fc3947d88}},
		{"random", "synth-08", true, samplerPin{1, 1, 1, 1, 1, 39, 0x2863fce7f3feecca}},
		{"pct", "synth-08", true, samplerPin{3, 3, 3, 2, 1, 117, 0xecb5ca19817ea316}},
		{"pos", "synth-08", true, samplerPin{2, 2, 2, 2, 2, 78, 0x74e68c9fc3947d88}},
	}
	for _, g := range golden {
		bm := benchProgram(t, g.prog)
		opt := Options{ScheduleLimit: 300, MaxSteps: 2000, StopAtFirstBug: g.stop}
		res := samplerBySpec(g.spec, 7).Explore(bm.Program, opt)
		if got := pinOf(res); got != g.want {
			t.Errorf("%s on %s (stop=%v):\n got %+v\nwant %+v", g.spec, g.prog, g.stop, got, g.want)
		}
	}
}

// treePin is one tree engine's observable outcome: the sampler pin
// plus how its executions ended.
type treePin struct {
	samplerPin
	terminals, pruned, truncated, sleepBlocked int
}

func treePinOf(r Result) treePin {
	return treePin{pinOf(r), r.Terminals, r.Pruned, r.Truncated, r.SleepBlocked}
}

func treeBySpec(spec string) Engine {
	switch spec {
	case "dfs":
		return NewDFS()
	case "hbr-caching":
		return NewHBRCache()
	case "lazy-hbr-caching":
		return NewLazyHBRCache()
	case "pb:1":
		return NewPreemptionBounded(1)
	case "db:1":
		return NewDelayBounded(1)
	case "db:2":
		return NewDelayBounded(2)
	case "dpor":
		return NewDPOR(false)
	case "dpor+sleep":
		return NewDPOR(true)
	case "lazy-dpor":
		return NewLazyDPOR()
	}
	panic("unknown tree engine " + spec)
}

// TestTreeEnginesPinned pins the depth-first engines — exhaustive DFS,
// both HBR-caching engines, preemption and delay bounding and their
// CHESS deepening loops — on the programs and options of
// TestSamplerStreamsPinned. They all share one descend/backtrack
// skeleton and differ only in the choices a node may try and what
// each costs, so a change to the skeleton's visiting order, its
// pruning or its bound accounting moves these values. The DPOR rows
// (dpor, dpor+sleep, lazy-dpor) pin the backtrack-set search the same
// way: a change to its stack layout must leave every one of them as
// it is.
func TestTreeEnginesPinned(t *testing.T) {
	golden := []struct {
		spec, prog string
		stop       bool
		want       treePin
	}{
		{"dfs", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 72, 72, 5, 1111, 0x0}, 300, 0, 0, 0}},
		{"hbr-caching", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 74, 74, 5, 844, 0x0}, 74, 226, 0, 0}},
		{"lazy-hbr-caching", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 74, 74, 5, 844, 0x0}, 74, 226, 0, 0}},
		{"pb:1", "chan-mesh-2p2c", false, treePin{samplerPin{88, 0, 80, 80, 5, 510, 0x0}, 88, 0, 0, 0}},
		{"db:1", "chan-mesh-2p2c", false, treePin{samplerPin{8, 0, 6, 6, 3, 59, 0x0}, 8, 0, 0, 0}},
		{"db:2", "chan-mesh-2p2c", false, treePin{samplerPin{35, 0, 22, 22, 5, 208, 0x0}, 35, 0, 0, 0}},
		{"dpor", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 182, 182, 5, 1487, 0x0}, 300, 0, 0, 0}},
		{"dpor+sleep", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 194, 194, 5, 1165, 0x0}, 194, 0, 0, 106}},
		{"lazy-dpor", "chan-mesh-2p2c", false, treePin{samplerPin{300, 0, 182, 182, 5, 1487, 0x0}, 300, 0, 0, 0}},
		{"dfs", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 72, 72, 5, 1111, 0x0}, 300, 0, 0, 0}},
		{"hbr-caching", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 74, 74, 5, 844, 0x0}, 74, 226, 0, 0}},
		{"lazy-hbr-caching", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 74, 74, 5, 844, 0x0}, 74, 226, 0, 0}},
		{"pb:1", "chan-mesh-2p2c", true, treePin{samplerPin{88, 0, 80, 80, 5, 510, 0x0}, 88, 0, 0, 0}},
		{"db:1", "chan-mesh-2p2c", true, treePin{samplerPin{8, 0, 6, 6, 3, 59, 0x0}, 8, 0, 0, 0}},
		{"db:2", "chan-mesh-2p2c", true, treePin{samplerPin{35, 0, 22, 22, 5, 208, 0x0}, 35, 0, 0, 0}},
		{"dpor", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 182, 182, 5, 1487, 0x0}, 300, 0, 0, 0}},
		{"dpor+sleep", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 194, 194, 5, 1165, 0x0}, 194, 0, 0, 106}},
		{"lazy-dpor", "chan-mesh-2p2c", true, treePin{samplerPin{300, 0, 182, 182, 5, 1487, 0x0}, 300, 0, 0, 0}},
		{"dfs", "philosophers-3", false, treePin{samplerPin{300, 96, 7, 2, 2, 2348, 0xd949aa186c0c4928}, 300, 0, 0, 0}},
		{"hbr-caching", "philosophers-3", false, treePin{samplerPin{96, 37, 7, 2, 2, 255, 0xd949aa186c0c4928}, 7, 89, 0, 0}},
		{"lazy-hbr-caching", "philosophers-3", false, treePin{samplerPin{93, 36, 2, 2, 2, 225, 0xd949aa186c0c4928}, 2, 91, 0, 0}},
		{"pb:1", "philosophers-3", false, treePin{samplerPin{75, 25, 7, 2, 2, 852, 0xd94645186c0967b2}, 75, 0, 0, 0}},
		{"db:1", "philosophers-3", false, treePin{samplerPin{10, 0, 3, 1, 1, 141, 0x0}, 10, 0, 0, 0}},
		{"db:2", "philosophers-3", false, treePin{samplerPin{39, 28, 4, 2, 2, 438, 0xd949aa186c0c4928}, 39, 0, 0, 0}},
		{"dpor", "philosophers-3", false, treePin{samplerPin{21, 4, 7, 2, 2, 264, 0xd949aa186c0c4928}, 21, 0, 0, 0}},
		{"dpor+sleep", "philosophers-3", false, treePin{samplerPin{14, 4, 7, 2, 2, 160, 0xd949aa186c0c4928}, 14, 0, 0, 0}},
		{"lazy-dpor", "philosophers-3", false, treePin{samplerPin{12, 4, 5, 2, 2, 137, 0xd949aa186c0c4928}, 12, 0, 0, 0}},
		{"dfs", "philosophers-3", true, treePin{samplerPin{96, 96, 4, 2, 2, 737, 0xd949aa186c0c4928}, 96, 0, 0, 0}},
		{"hbr-caching", "philosophers-3", true, treePin{samplerPin{37, 37, 4, 2, 2, 111, 0xd949aa186c0c4928}, 4, 33, 0, 0}},
		{"lazy-hbr-caching", "philosophers-3", true, treePin{samplerPin{36, 36, 2, 2, 2, 101, 0xd949aa186c0c4928}, 2, 34, 0, 0}},
		{"pb:1", "philosophers-3", true, treePin{samplerPin{25, 25, 4, 2, 2, 284, 0xd94645186c0967b2}, 25, 0, 0, 0}},
		{"db:1", "philosophers-3", true, treePin{samplerPin{10, 0, 3, 1, 1, 141, 0x0}, 10, 0, 0, 0}},
		{"db:2", "philosophers-3", true, treePin{samplerPin{28, 28, 4, 2, 2, 310, 0xd949aa186c0c4928}, 28, 0, 0, 0}},
		{"dpor", "philosophers-3", true, treePin{samplerPin{4, 4, 4, 2, 2, 47, 0xd949aa186c0c4928}, 4, 0, 0, 0}},
		{"dpor+sleep", "philosophers-3", true, treePin{samplerPin{4, 4, 4, 2, 2, 47, 0xd949aa186c0c4928}, 4, 0, 0, 0}},
		{"lazy-dpor", "philosophers-3", true, treePin{samplerPin{4, 4, 4, 2, 2, 47, 0xd949aa186c0c4928}, 4, 0, 0, 0}},
		{"dfs", "synth-08", false, treePin{samplerPin{300, 2, 4, 1, 1, 3416, 0x9ae5fd883dd28c52}, 300, 0, 0, 0}},
		{"hbr-caching", "synth-08", false, treePin{samplerPin{300, 2, 22, 3, 2, 926, 0x9ae5fd883dd28c52}, 22, 278, 0, 0}},
		{"lazy-hbr-caching", "synth-08", false, treePin{samplerPin{300, 49, 3, 3, 2, 737, 0x473de543b00eaf2}, 3, 297, 0, 0}},
		{"pb:1", "synth-08", false, treePin{samplerPin{178, 2, 73, 3, 2, 4233, 0x34ca73da25fe6f36}, 178, 0, 0, 0}},
		{"db:1", "synth-08", false, treePin{samplerPin{13, 2, 4, 2, 1, 385, 0x9ae5fd883dd28c52}, 13, 0, 0, 0}},
		{"db:2", "synth-08", false, treePin{samplerPin{121, 2, 9, 2, 1, 2934, 0x9ae5fd883dd28c52}, 121, 0, 0, 0}},
		{"dpor", "synth-08", false, treePin{samplerPin{300, 2, 20, 3, 2, 4302, 0x9ae5fd883dd28c52}, 300, 0, 0, 0}},
		{"dpor+sleep", "synth-08", false, treePin{samplerPin{300, 2, 62, 3, 2, 4500, 0x9ae5fd883dd28c52}, 298, 0, 0, 2}},
		{"lazy-dpor", "synth-08", false, treePin{samplerPin{300, 2, 20, 3, 2, 4302, 0x9ae5fd883dd28c52}, 300, 0, 0, 0}},
		{"dfs", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"hbr-caching", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"lazy-hbr-caching", "synth-08", true, treePin{samplerPin{49, 49, 2, 2, 1, 174, 0x473de543b00eaf2}, 2, 47, 0, 0}},
		{"pb:1", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x34ca73da25fe6f36}, 2, 0, 0, 0}},
		{"db:1", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"db:2", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"dpor", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"dpor+sleep", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
		{"lazy-dpor", "synth-08", true, treePin{samplerPin{2, 2, 2, 1, 1, 61, 0x9ae5fd883dd28c52}, 2, 0, 0, 0}},
	}
	for _, g := range golden {
		bm := benchProgram(t, g.prog)
		opt := Options{ScheduleLimit: 300, MaxSteps: 2000, StopAtFirstBug: g.stop}
		res := treeBySpec(g.spec).Explore(bm.Program, opt)
		if got := treePinOf(res); got != g.want {
			t.Errorf("%s on %s (stop=%v):\n got %+v\nwant %+v", g.spec, g.prog, g.stop, got, g.want)
		}
	}
}
