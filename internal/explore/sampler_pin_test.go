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
