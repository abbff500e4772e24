package exec_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/bench"
	"repro/internal/event"
	"repro/internal/exec"
)

// pinSeeds are the exec.NewRandom seeds every pinned program runs
// under.
var pinSeeds = []int64{1, 2, 3}

// pinnedFingerprints are the raw happens-before fingerprints and race
// counts of seeded random executions of corpus programs. They are the
// values the tracker computed before any change to its internals and
// must never be regenerated: a tracker rewrite that alters one of them
// changes the paper's Figure 2/3 quantities. The list covers mutexes
// (philosophers, coarse-tail, account-locked), spawn/join (forkjoin),
// races (counter-racy, account-racy), channels and select (chan-*).
var pinnedFingerprints = []struct {
	name   string
	seed   int64
	hb     string
	lazy   string
	nraces int
}{
	{"philosophers-3", 1, "136d8bed8a394110-383f12880afb8b61", "136d8bed8a394110-383f12880afb8b61", 0},
	{"philosophers-3", 2, "8b2503422ea2fbb5-e9af4aff89914c37", "060e65633c1dd344-9dcb625f1e5ebeb6", 0},
	{"philosophers-3", 3, "136d8bed8a394110-383f12880afb8b61", "136d8bed8a394110-383f12880afb8b61", 0},
	{"coarse-tail-3x3", 1, "5f66d3b177b9f184-4dec7c15d7bb99e6", "c718c5b9ff42951a-71313d75ef316f5c", 4},
	{"coarse-tail-3x3", 2, "e811865e39dd5c33-c9ce22f05bf2b4ee", "f1cb0ef31fb3dbca-f08b49cf3eacf79a", 2},
	{"coarse-tail-3x3", 3, "c84b1d81fc123b90-a1a7b4466f63786a", "d204a616e1e8bb27-98e2df790a3d3b1e", 4},
	{"account-locked-2", 1, "eed5fb913add300c-83e244ea4ca77fe3", "db600e358cd11b8d-6f0416093106530d", 0},
	{"account-locked-2", 2, "1a1fd00407a36095-e22c6c7b8a283a16", "535b81ff43c65473-519bfba525fa6189", 0},
	{"account-locked-2", 3, "1a1fd00407a36095-e22c6c7b8a283a16", "535b81ff43c65473-519bfba525fa6189", 0},
	{"account-racy-2", 1, "831776b9bc4d398c-e6a6c6601a80afa4", "831776b9bc4d398c-e6a6c6601a80afa4", 2},
	{"account-racy-2", 2, "cc39be5a7183fe8e-a7243c65ccd8523e", "cc39be5a7183fe8e-a7243c65ccd8523e", 2},
	{"account-racy-2", 3, "0c62f43be7bea606-48e0ad5515d7959b", "0c62f43be7bea606-48e0ad5515d7959b", 2},
	{"counter-racy-2x2", 1, "498e17072f5a7eb9-f892fa7c32a20291", "498e17072f5a7eb9-f892fa7c32a20291", 2},
	{"counter-racy-2x2", 2, "ee51acbb79c80b1f-4b9dc08eb7be2673", "ee51acbb79c80b1f-4b9dc08eb7be2673", 2},
	{"counter-racy-2x2", 3, "a15b2d7004a82a7d-56cc823b4f94294c", "a15b2d7004a82a7d-56cc823b4f94294c", 4},
	{"forkjoin-3", 1, "d8cb20f9e4467a83-b9255d161c05050c", "6fd24501339b0a85-20a7ff1314284838", 0},
	{"forkjoin-3", 2, "d609e8589764264f-a5a04d48a384ac3b", "def797de7a470c7c-354d6aa1188af649", 0},
	{"forkjoin-3", 3, "d8cb20f9e4467a83-b9255d161c05050c", "6fd24501339b0a85-20a7ff1314284838", 0},
	{"pipeline-3", 1, "bcf21bd876c69b4d-d164d59f99517759", "bcf21bd876c69b4d-d164d59f99517759", 2},
	{"pipeline-3", 2, "17fbe093e64a023a-1bce5198bebab38e", "17fbe093e64a023a-1bce5198bebab38e", 2},
	{"pipeline-3", 3, "f02f6d6c50f5624f-eaaa6ace7669ba1c", "f02f6d6c50f5624f-eaaa6ace7669ba1c", 2},
	{"prodcons-1p1c-s1-i2", 1, "175f78a1b3b6794c-858b0b711047c83f", "a9f75cd3b717e88d-0d635db99c85f6ca", 0},
	{"prodcons-1p1c-s1-i2", 2, "47fa5bffa76928ed-cf757f31423f34a3", "1d0d258e1e4c1f3f-f3691a7415ae1b6e", 0},
	{"prodcons-1p1c-s1-i2", 3, "25fe711f6b922073-6f1e5d18576496f4", "eb98829ef97269a0-fe3835862380bc49", 0},
	{"synth-09", 1, "5fab13e13695ccfa-2d61ede60b4c56a6", "0770a23080087380-1bfc0567a2ab4dc8", 2},
	{"synth-09", 2, "8ea9b7dcf250cbc4-5ed1cfe25c504c2e", "a70b32bd79514f8c-539992b26ede254a", 3},
	{"synth-09", 3, "754dd69449aae1f8-11b08eb577f174b4", "5bdeca1a023caed1-e1545a5f6495d0b8", 2},
	{"chan-prodcons-2p1c", 1, "555c9e223204efcf-5291979fbc32ef94", "555c9e223204efcf-5291979fbc32ef94", 0},
	{"chan-prodcons-2p1c", 2, "6a7390bbe1b3d3b9-6113d06ffa687c9d", "6a7390bbe1b3d3b9-6113d06ffa687c9d", 0},
	{"chan-prodcons-2p1c", 3, "6a7390bbe1b3d3b9-6113d06ffa687c9d", "6a7390bbe1b3d3b9-6113d06ffa687c9d", 0},
	{"chan-fanin-select", 1, "45d77dd2a5a8c287-7dbf21e5132a7aff", "45d77dd2a5a8c287-7dbf21e5132a7aff", 0},
	{"chan-fanin-select", 2, "13a9967356a74b91-22913a0cd6f77814", "13a9967356a74b91-22913a0cd6f77814", 0},
	{"chan-fanin-select", 3, "c488a573f1434773-6723d2adc6474cc9", "c488a573f1434773-6723d2adc6474cc9", 0},
	{"chan-select-order-bug", 1, "0ac30867688d7c46-fcfbf43095bc5023", "0ac30867688d7c46-fcfbf43095bc5023", 0},
	{"chan-select-order-bug", 2, "7a6712f4bffc43b1-03be1b52a42dc925", "7a6712f4bffc43b1-03be1b52a42dc925", 0},
	{"chan-select-order-bug", 3, "fbe83665bdfe9682-135bf11bda8fa1e8", "fbe83665bdfe9682-135bf11bda8fa1e8", 0},
	{"chan-send-closed-panic", 1, "d3d94ac84fc94a93-f5816f396d53994e", "d3d94ac84fc94a93-f5816f396d53994e", 0},
	{"chan-send-closed-panic", 2, "87c63d8add13c008-32e5e5647e42cd40", "87c63d8add13c008-32e5e5647e42cd40", 0},
	{"chan-send-closed-panic", 3, "87c63d8add13c008-32e5e5647e42cd40", "87c63d8add13c008-32e5e5647e42cd40", 0},
	{"chan-mesh-2p2c", 1, "e3b4ca8f68593199-786197dc99a5e3c5", "e3b4ca8f68593199-786197dc99a5e3c5", 0},
	{"chan-mesh-2p2c", 2, "fa02fca4dcfd86ba-ed458e4f2d1d6150", "fa02fca4dcfd86ba-ed458e4f2d1d6150", 0},
	{"chan-mesh-2p2c", 3, "41396c4d804935a1-6ba89e398665856c", "41396c4d804935a1-6ba89e398665856c", 0},
}

// pinnedCorpusDigest folds the outcome of every corpus program under
// every pin seed — both fingerprints, the race count and every
// recorded per-event HB and lazy clock — into one FNV-1a digest.
const pinnedCorpusDigest = 0x6b37f1d880d94d00

// pinKinds reports which event kinds the pinned rows' traces contain.
func pinKinds(t *testing.T) map[event.Kind]bool {
	t.Helper()
	seen := map[event.Kind]bool{}
	for _, row := range pinnedFingerprints {
		bm, ok := bench.ByName(row.name)
		if !ok {
			t.Fatalf("unknown benchmark %s", row.name)
		}
		out := exec.Run(bm.Program, exec.NewRandom(row.seed), exec.Options{})
		for _, e := range out.Trace {
			seen[e.Kind] = true
		}
	}
	return seen
}

// TestFingerprintValuesPinned checks the tracker's raw fingerprint
// values, race counts and per-event clocks against values recorded
// once; equality across runs of one build (what the exactness oracles
// check) cannot catch a change that shifts every value consistently.
func TestFingerprintValuesPinned(t *testing.T) {
	seen := pinKinds(t)
	for _, k := range []event.Kind{event.KindLock, event.KindUnlock, event.KindSpawn, event.KindJoin,
		event.KindRead, event.KindWrite, event.KindSend, event.KindRecv, event.KindClose, event.KindSelect} {
		if !seen[k] {
			t.Errorf("pinned programs never execute a %v event", k)
		}
	}
	for _, row := range pinnedFingerprints {
		bm, _ := bench.ByName(row.name)
		out := exec.Run(bm.Program, exec.NewRandom(row.seed), exec.Options{})
		if hb, lazy := out.HBFP.String(), out.LazyFP.String(); hb != row.hb || lazy != row.lazy || len(out.Races) != row.nraces {
			t.Errorf("%s seed %d: hb %s lazy %s races %d, want hb %s lazy %s races %d",
				row.name, row.seed, hb, lazy, len(out.Races), row.hb, row.lazy, row.nraces)
		}
	}
	if got := corpusDigest(); got != pinnedCorpusDigest {
		t.Errorf("corpus digest %#016x, want %#016x", got, uint64(pinnedCorpusDigest))
	}
}

// corpusDigest runs every corpus program under every pin seed with
// clock recording on and digests the outcomes in corpus order.
func corpusDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	for _, bm := range bench.All() {
		for _, seed := range pinSeeds {
			out := exec.Run(bm.Program, exec.NewRandom(seed), exec.Options{RecordClocks: true})
			put(out.HBFP[0])
			put(out.HBFP[1])
			put(out.LazyFP[0])
			put(out.LazyFP[1])
			put(uint64(len(out.Races)))
			for i := range out.HBClocks {
				put(out.HBClocks[i].Hash())
				put(out.LazyClocks[i].Hash())
			}
		}
	}
	return h.Sum64()
}
