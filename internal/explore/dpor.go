package explore

import (
	"fmt"

	"repro/internal/event"
	"repro/internal/hb"
	"repro/internal/model"
)

// dporEngine implements dynamic partial-order reduction (Flanagan &
// Godefroid, POPL 2005) in the iterative stack formulation: execute
// forward under a default policy, and at every visited state, for every
// thread's pending transition, locate the most recent trace event that
// is dependent, may-be-co-enabled and not happens-before that
// transition; seed the backtrack set of the state preceding that event.
// Optional sleep sets suppress re-exploration of commutative siblings.
type dporEngine struct {
	sleep bool
	// lazyCS enables the experimental "lazy DPOR" of the paper's
	// Section 4: lock-lock race reversals whose critical sections
	// provably access disjoint data produce lazy-HBR-equivalent
	// schedules (Theorem 2.2), so their backtrack points are
	// skipped. The analysis is deferred to the end of the execution,
	// when both critical sections' contents are known; any doubt
	// (incomplete section, nested locks, spawn/join inside, the lock
	// never executing) falls back to the classic backtrack point.
	lazyCS bool
}

// NewDPOR returns the classic DPOR engine; sleepSets enables sleep
// sets.
func NewDPOR(sleepSets bool) Engine { return &dporEngine{sleep: sleepSets} }

// ExploreDPORUnit runs DPOR (with sleep sets when sleep is set) over
// one work-stealing unit: the subtree beneath u.Prefix, coordinated
// through u.Steal and counted into u.Dedup and u.Budget. The zero Unit
// is the whole tree, exactly NewDPOR(sleep).Explore. It panics on a
// unit that fails validation (a coordinator bug).
func ExploreDPORUnit(src model.Source, opt Options, sleep bool, u Unit) Result {
	return (&dporEngine{sleep: sleep}).explore(src, opt, u)
}

// NewLazyDPOR returns the experimental lazy DPOR engine (the paper's
// Section 4 future work): DPOR whose lock-lock backtrack points are
// suppressed when the two critical sections provably commute under the
// lazy happens-before relation. Empirically validated against
// exhaustive state enumeration in the test suite; not accompanied by a
// proof (the paper leaves the algorithm open).
func NewLazyDPOR() Engine { return &dporEngine{lazyCS: true} }

// Name implements Engine.
func (e *dporEngine) Name() string {
	switch {
	case e.lazyCS && e.sleep:
		return "lazy-dpor+sleep"
	case e.lazyCS:
		return "lazy-dpor"
	case e.sleep:
		return "dpor+sleep"
	default:
		return "dpor"
	}
}

// deferredLL is a postponed lock-lock backtrack decision: thread p,
// whose pending lock raced with trace event i, will (under the default
// continuation) lock the mutex at or after trace position at.
type deferredLL struct {
	i  int
	p  event.ThreadID
	mu int32
	at int
}

// csSummary describes one critical section's contents.
type csSummary struct {
	reads, writes map[int32]struct{}
	clean         bool // complete, no nested sync, no spawn/join
}

// summarizeCS scans the critical section opened by the lock event at
// trace position lockIdx (events of the locking thread only, up to the
// matching unlock).
func summarizeCS(trace []event.Event, lockIdx int) csSummary {
	var cs csSummary
	cs.summarize(trace, lockIdx)
	return cs
}

// summarize is summarizeCS into cs, reusing the storage of its sets:
// the lazy engine summarises two sections per deferred lock race.
func (cs *csSummary) summarize(trace []event.Event, lockIdx int) {
	lock := trace[lockIdx]
	if cs.reads == nil {
		cs.reads, cs.writes = map[int32]struct{}{}, map[int32]struct{}{}
	}
	clear(cs.reads)
	clear(cs.writes)
	cs.clean = false
	for j := lockIdx + 1; j < len(trace); j++ {
		ev := trace[j]
		if ev.Thread != lock.Thread {
			continue
		}
		switch ev.Kind {
		case event.KindRead:
			cs.reads[ev.Obj] = struct{}{}
		case event.KindWrite:
			cs.writes[ev.Obj] = struct{}{}
		case event.KindUnlock:
			// An unlock of a different mutex is nested sync.
			cs.clean = ev.Obj == lock.Obj
			return
		case event.KindLock, event.KindSpawn, event.KindJoin:
			return // nested sync or thread structure: not clean
		case event.KindSend, event.KindRecv, event.KindClose, event.KindSelect:
			// Channel operations synchronise through their own clocks,
			// outside the read/write footprint this summary models: any
			// channel traffic inside the section disqualifies it.
			return
		case event.KindAssert:
			// Thread-local; harmless.
		}
	}
	// The trace ended inside the section: not clean.
}

// ladderOK reports whether, after trace position i, every thread's
// remaining events form exactly one clean critical section on mutex mu
// (possibly followed by nothing), or no events at all. Under this
// "lock ladder" shape the remaining schedule space is exactly the set
// of permutations of atomic blocks serialised by mu: every permutation
// is feasible, and two permutations that differ only in the order of
// data-disjoint blocks have the same lazy HBR and hence the same state
// (Theorem 2.2). Lock-lock reversals of disjoint blocks are then
// genuinely redundant — this is the soundness condition of the
// experimental lazy DPOR. (Pairwise disjointness alone is NOT enough:
// the lock order gates which subtrees exist, not just the final state;
// the test suite demonstrates this with random programs.)
func ladderOK(trace []event.Event, i int, mu int32) bool {
	type threadScan struct {
		state int // 0 = before lock, 1 = inside CS, 2 = after unlock
	}
	scans := map[event.ThreadID]*threadScan{}
	for j := i; j < len(trace); j++ {
		ev := trace[j]
		sc := scans[ev.Thread]
		if sc == nil {
			sc = &threadScan{}
			scans[ev.Thread] = sc
		}
		switch sc.state {
		case 0:
			if ev.Kind != event.KindLock || ev.Obj != mu {
				return false
			}
			sc.state = 1
		case 1:
			switch ev.Kind {
			case event.KindRead, event.KindWrite, event.KindAssert:
				// Plain data or thread-local work inside the block.
			case event.KindUnlock:
				if ev.Obj != mu {
					return false
				}
				sc.state = 2
			default:
				return false
			}
		case 2:
			return false // tail events after the block
		}
	}
	for _, sc := range scans {
		if sc.state != 2 {
			return false // incomplete block (still holding mu)
		}
	}
	return true
}

// disjoint reports whether two clean critical sections commute under
// the lazy HBR: neither writes anything the other touches.
func disjoint(a, b csSummary) bool {
	for v := range a.writes {
		if _, ok := b.writes[v]; ok {
			return false
		}
		if _, ok := b.reads[v]; ok {
			return false
		}
	}
	for v := range b.writes {
		if _, ok := a.reads[v]; ok {
			return false
		}
	}
	return true
}

// pnode is the slim per-depth state work-stealing mode retains for the
// pinned prefix: enough to compute escaped backtrack additions exactly
// as sequential DPOR would at that node.
type pnode struct {
	enabled    []event.ThreadID
	enabledSet tset
	steps      []int32
	// claimed caches the masks already handed to Steal.Escape for
	// this node: the claim table is monotone, so a covered mask needs
	// no repeat round-trip (hot prefix races recur every schedule).
	claimed tset
}

// dnode is one state on the current DPOR stack.
type dnode struct {
	enabled    []event.ThreadID
	enabledSet tset
	// steps[q] is the number of events thread q had executed when
	// this state was reached; used for the ∃j>i ∧ j→next(p) test.
	steps []int32
	// pend[q] is thread q's pending operation at this state (valid
	// where pendSet has q); used by sleep-set dependence checks.
	pend    []event.Op
	pendSet tset

	backtrack tset
	done      tset
	sleep     tset
	chosen    event.ThreadID
}

// dporState bundles the cursor with per-object access logs that make
// the "most recent dependent event" lookup O(1) amortised: conflicting
// writes (and lock events per mutex) are totally ordered by the regular
// HBR, so only a bounded suffix of each log needs inspection.
type dporState struct {
	c         *cursor
	varWrites [][]int32
	varReads  [][]int32
	muLocks   [][]int32
	chOps     [][]int32
}

func newDPORState(src model.Source, opt Options) *dporState {
	return &dporState{
		c:         newCursor(src, opt),
		varWrites: make([][]int32, src.NumVars()),
		varReads:  make([][]int32, src.NumVars()),
		muLocks:   make([][]int32, src.NumMutexes()),
		chOps:     make([][]int32, model.NumChannels(src)),
	}
}

// step executes thread t and indexes the produced event.
func (s *dporState) step(t event.ThreadID) { s.index(s.c.step(t)) }

// index appends ev, the event just executed, to its objects' access
// logs.
func (s *dporState) index(ev event.Event) {
	idx := int32(s.c.depth() - 1)
	switch ev.Kind {
	case event.KindWrite:
		s.varWrites[ev.Obj] = append(s.varWrites[ev.Obj], idx)
	case event.KindRead:
		s.varReads[ev.Obj] = append(s.varReads[ev.Obj], idx)
	case event.KindLock:
		s.muLocks[ev.Obj] = append(s.muLocks[ev.Obj], idx)
	case event.KindSend, event.KindRecv, event.KindClose:
		s.chOps[ev.Obj] = append(s.chOps[ev.Obj], idx)
	case event.KindSelect:
		// A committed select observed (and republished the clock of)
		// every case channel, so it joins each one's total order.
		for mask, ch := event.SelectCases(ev.Val), 0; mask != 0; ch++ {
			if mask&1 != 0 {
				s.chOps[ch] = append(s.chOps[ch], idx)
			}
			mask >>= 1
		}
	}
}

// replayPrefix executes a unit's pinned choices through the access-log
// indexer, so lastDep sees them, and returns each prefix state's pnode
// for the escape computation. Choices covered by the unit's tracker
// seed advance only the machine, and the seed is installed once they
// are replayed. The coordinator builds prefixes from live executions,
// so a choice that is not enabled is a coordinator bug.
func (s *dporState) replayPrefix(u Unit) []pnode {
	c := s.c
	seedDepth := 0
	if u.TrackerSeed != nil && len(u.Prefix) > 1 {
		seedDepth = len(u.Prefix) - 1
	}
	pnodes := make([]pnode, 0, len(u.Prefix))
	for i, t := range u.Prefix {
		pn := pnode{
			enabled: append([]event.ThreadID(nil), c.enabled()...),
			steps:   make([]int32, c.src.NumThreads()),
		}
		for _, q := range pn.enabled {
			pn.enabledSet.add(q)
		}
		if !pn.enabledSet.has(t) {
			panic(fmt.Sprintf("explore: prefix choice t%d not enabled at depth %d", t, i))
		}
		for q := range pn.steps {
			pn.steps[q] = c.m.Steps(event.ThreadID(q))
		}
		pnodes = append(pnodes, pn)
		if i >= seedDepth {
			s.step(t)
			continue
		}
		ev := c.m.Step(t)
		c.trace = append(c.trace, ev)
		c.choices = append(c.choices, t)
		c.events++
		s.index(ev)
		if i+1 == seedDepth {
			c.tr = u.TrackerSeed
			if c.backend == BackendUndo {
				// The seed's undo log starts here: the pinned prefix
				// below it is never rewound.
				c.tr.EnableUndo()
				c.trBase = seedDepth
			}
		}
	}
	return pnodes
}

// resetTo truncates the execution and the access logs to depth d.
func (s *dporState) resetTo(d int) {
	s.c.resetTo(d)
	trunc := func(logs [][]int32) {
		for i, log := range logs {
			n := len(log)
			for n > 0 && log[n-1] >= int32(d) {
				n--
			}
			logs[i] = log[:n]
		}
	}
	trunc(s.varWrites)
	trunc(s.varReads)
	trunc(s.muLocks)
	trunc(s.chOps)
}

// lastDep returns the index of the most recent trace event that is
// dependent with, may-be-co-enabled with, and not happens-before,
// thread p's pending operation op; -1 if none. Only the cases that can
// yield candidates are inspected:
//
//   - pending read: the last write to the variable (earlier writes
//     happen-before it);
//   - pending write: the most recent not-ordered read after the last
//     write, else the last write;
//   - pending lock: the last lock of the mutex (lock events of one
//     mutex are totally ordered; unlocks are never co-enabled with
//     locks);
//   - pending send/recv/close: the last operation on the channel (all
//     operations on one channel, committed selects included, are
//     totally ordered by the per-channel clock);
//   - pending select: the latest such last-operation over its case
//     channels.
func (s *dporState) lastDep(p event.ThreadID, op event.Op) int {
	notHB := func(i int32) bool { return !s.c.tr.HappensBeforeNext(s.c.trace[i], p) }
	switch op.Kind {
	case event.KindRead:
		if ws := s.varWrites[op.Obj]; len(ws) > 0 && notHB(ws[len(ws)-1]) {
			return int(ws[len(ws)-1])
		}
	case event.KindWrite:
		lastW := int32(-1)
		if ws := s.varWrites[op.Obj]; len(ws) > 0 {
			lastW = ws[len(ws)-1]
		}
		rs := s.varReads[op.Obj]
		for k := len(rs) - 1; k >= 0 && rs[k] > lastW; k-- {
			if notHB(rs[k]) {
				return int(rs[k])
			}
		}
		if lastW >= 0 && notHB(lastW) {
			return int(lastW)
		}
	case event.KindLock:
		if ls := s.muLocks[op.Obj]; len(ls) > 0 && notHB(ls[len(ls)-1]) {
			return int(ls[len(ls)-1])
		}
	case event.KindSend, event.KindRecv, event.KindClose:
		if cs := s.chOps[op.Obj]; len(cs) > 0 && notHB(cs[len(cs)-1]) {
			return int(cs[len(cs)-1])
		}
	case event.KindSelect:
		// Per-channel total order makes only each case channel's last
		// operation a candidate; events of distinct channels are
		// mutually unordered, so take the latest not-ordered one.
		best := -1
		for mask, ch := event.SelectCases(op.Val), 0; mask != 0; ch++ {
			if mask&1 != 0 {
				if cs := s.chOps[ch]; len(cs) > 0 && int(cs[len(cs)-1]) > best && notHB(cs[len(cs)-1]) {
					best = int(cs[len(cs)-1])
				}
			}
			mask >>= 1
		}
		return best
	}
	return -1
}

// Explore implements Engine: the whole tree, nothing shared.
func (e *dporEngine) Explore(src model.Source, opt Options) Result {
	return e.explore(src, opt, Unit{})
}

func (e *dporEngine) explore(src model.Source, opt Options, u Unit) Result {
	if err := u.validate(src, opt); err != nil {
		panic(err)
	}
	st := newDPORState(src, opt)
	c := st.c
	defer c.close()
	rec := newRecorder(src, e.Name(), opt, c)
	if u.Dedup != nil {
		rec.dedup = u.Dedup
	}
	rec.budget = u.Budget
	nthreads := src.NumThreads()
	steal := u.Steal

	// The unit's pinned prefix owns no stack nodes: race reversals
	// that would seed a backtrack point inside it escape to the Steal
	// coordinator instead (see escape), which is what carries the
	// reduction across unit boundaries.
	pnodes := st.replayPrefix(u)
	base := len(u.Prefix)

	var nodes []*dnode

	// pubLocal counts the local stack nodes (from the bottom) that
	// have been published to the Steal coordinator: backtrack
	// additions at depths below base+pubLocal are globally claimed
	// escapes, not local set updates.
	pubLocal := 0

	// seedAt returns a maker of private tracker clones for the state
	// at absolute depth d, or nil when the backend keeps no tracker
	// state there (replay backend, or a depth covered by this unit's
	// own shipped seed). Under the undo backend the maker rewinds a
	// clone of the live tracker through the engine's own undo records
	// (hb.Tracker.CloneTo); it therefore must be invoked while the
	// cursor still sits at (or above) depth d — the Steal coordinator
	// calls makers synchronously inside Escape/Publish, never later.
	seedAt := func(d int) func() *hb.Tracker {
		if c.backend == BackendUndo {
			if m := d - c.trBase; m >= 0 && m <= c.tr.UndoMark() {
				return func() *hb.Tracker { return c.tr.CloneTo(m) }
			}
		}
		return nil
	}

	// escape computes the exact Flanagan–Godefroid backtrack addition
	// for the published node preceding trace event i — p itself if
	// enabled there; otherwise the first enabled thread with a later
	// event ordered before p's next transition; otherwise every
	// enabled thread — and routes it through the coordinator's claim
	// table. Additions targeting a node this engine still owns (a
	// published node of its own stack) are claimed and folded back
	// into the local backtrack set, so they are explored in place;
	// only additions into the foreign pinned prefix ship as units.
	escape := func(i int, p event.ThreadID) {
		var en []event.ThreadID
		var eset tset
		var steps []int32
		if i < base {
			pn := &pnodes[i]
			en, eset, steps = pn.enabled, pn.enabledSet, pn.steps
		} else {
			n := nodes[i-base]
			en, eset, steps = n.enabled, n.enabledSet, n.steps
		}
		var mask tset
		if eset.has(p) {
			mask.add(p)
		} else {
			for _, q := range en {
				if c.tr.ThreadClock(p).Get(int(q)) >= steps[q]+1 {
					mask.add(q)
					break
				}
			}
			if mask.empty() {
				mask = eset
			}
		}
		if i < base {
			pn := &pnodes[i]
			if mask&^pn.claimed != 0 {
				steal.Escape(c.choices[:i], uint64(mask), seedAt(i))
				pn.claimed |= mask
			}
			return
		}
		// Published own-stack node: the local backtrack set is always a
		// subset of the node's global claim set, so a mask already
		// covered locally needs no table round-trip (the sequential
		// engine's backtrack.has fast path, kept here to spare the
		// shard mutex and key allocation on every update).
		n := nodes[i-base]
		if mask&^n.backtrack != 0 {
			n.backtrack |= tset(steal.Claim(c.choices[:i], uint64(mask)))
		}
	}

	// maybeDonate ships pending backtrack branches to starving
	// workers: the shallowest local node with pending candidates is
	// published (along with every unpublished node above it, so
	// escapes from the donated subtrees always find their target) and
	// its pending branches become frontier units for other workers.
	maybeDonate := func() {
		if steal == nil || !steal.Starving() {
			return
		}
		dIdx := -1
		for j := pubLocal; j < len(nodes); j++ {
			if !(nodes[j].backtrack &^ nodes[j].done).empty() {
				dIdx = j
				break
			}
		}
		if dIdx < 0 {
			return
		}
		for j := pubLocal; j <= dIdx; j++ {
			n := nodes[j]
			pending := tset(0)
			if j == dIdx {
				pending = n.backtrack &^ n.done
			}
			// Only the branches the coordinator actually shipped are
			// retired locally: pending bits already claimed in the
			// table are this engine's own earlier Claim grants, which
			// it still owes an in-place exploration.
			var info *NodeInfo
			if e.sleep {
				info = &NodeInfo{Sleep: uint64(n.sleep), Pend: n.pend, PendSet: uint64(n.pendSet)}
			}
			shipped := steal.Publish(c.choices[:base+j], uint64(n.done), uint64(pending), seedAt(base+j), info)
			n.done |= tset(shipped)
		}
		pubLocal = dIdx + 1
	}

	// addBacktrack seeds the backtrack set of the state preceding
	// trace event i on behalf of thread p's pending transition,
	// following Flanagan–Godefroid: add p itself if enabled there;
	// otherwise any enabled thread with a later event ordered before
	// p's transition; otherwise every enabled thread.
	addBacktrack := func(i int, p event.ThreadID) {
		if i < base+pubLocal {
			// Reversal beneath the pinned prefix or a published
			// node: globally claimed through the coordinator.
			escape(i, p)
			return
		}
		n := nodes[i-base]
		if n.backtrack.has(p) {
			return
		}
		if n.enabledSet.has(p) {
			n.backtrack.add(p)
			return
		}
		for _, q := range n.enabled {
			// ∃ j > i executed by q with j → next(p): p's clock
			// includes an event of q beyond those executed when
			// state i was reached.
			if c.tr.ThreadClock(p).Get(int(q)) >= n.steps[q]+1 {
				n.backtrack.add(q)
				return
			}
		}
		for _, q := range n.enabled {
			n.backtrack.add(q)
		}
	}

	var deferred []deferredLL
	var csA, csB csSummary // resolveDeferred's reused section summaries

	// updates runs the race-reversal analysis at the current state
	// for every running thread's pending transition. In lazy mode,
	// lock-lock reversals are deferred until the execution completes
	// and both critical sections can be summarised.
	updates := func() {
		for q := 0; q < nthreads; q++ {
			p := event.ThreadID(q)
			op, ok := c.m.Pending(p)
			if !ok {
				continue
			}
			i := st.lastDep(p, op)
			if i < 0 {
				continue
			}
			if e.lazyCS && op.Kind == event.KindLock {
				deferred = append(deferred, deferredLL{i: i, p: p, mu: op.Obj, at: c.depth()})
				continue
			}
			addBacktrack(i, p)
		}
	}

	// resolveDeferred settles the postponed lock-lock decisions at
	// the end of an execution: skip the backtrack point only when
	// both critical sections are clean and access disjoint data, so
	// the reversed schedule has the same lazy HBR (Theorem 2.2).
	resolveDeferred := func() {
		for _, d := range deferred {
			if d.i >= base+len(nodes) {
				// The raced state was truncated by an earlier
				// resolution pass on a previous execution;
				// stale entry.
				continue
			}
			pLock := -1
			for _, li := range st.muLocks[d.mu] {
				if int(li) >= d.at && c.trace[li].Thread == d.p {
					pLock = int(li)
					break
				}
			}
			if pLock < 0 {
				addBacktrack(d.i, d.p) // lock never ran: be conservative
				continue
			}
			csA.summarize(c.trace, d.i)
			csB.summarize(c.trace, pLock)
			if csA.clean && csB.clean && disjoint(csA, csB) && ladderOK(c.trace, d.i, d.mu) {
				continue
			}
			addBacktrack(d.i, d.p)
		}
		deferred = deferred[:0]
	}

	var tids tidPool
	var i32s slicePool[int32]
	var ops slicePool[event.Op]
	var npool nodePool[dnode]

	// freeNode returns a popped node's buffers to the pools.
	freeNode := func(n *dnode) {
		tids.put(n.enabled)
		i32s.put(n.steps)
		ops.put(n.pend)
		npool.put(n)
	}

	makeNode := func() *dnode {
		en := c.enabled()
		n := npool.get()
		*n = dnode{
			enabled: tids.copyOf(en),
			steps:   grown(i32s.get(), nthreads),
			pend:    grown(ops.get(), nthreads),
		}
		for _, t := range en {
			n.enabledSet.add(t)
		}
		for q := 0; q < nthreads; q++ {
			t := event.ThreadID(q)
			n.steps[q] = c.m.Steps(t)
			if op, ok := c.m.Pending(t); ok {
				n.pend[q] = op
				n.pendSet.add(t)
			}
		}
		if e.sleep && len(nodes) == 0 {
			// The subtree root: a work-stealing coordinator shipped the
			// sleep set this node would carry in the sequential search
			// (already filtered by dependence against the prefix's last
			// event); a whole-tree search starts with nothing asleep.
			n.sleep = tset(u.SleepSeed)
		}
		if e.sleep && len(nodes) > 0 {
			parent := nodes[len(nodes)-1]
			execOp := c.trace[len(c.trace)-1].Op
			inherit := parent.sleep | (parent.done &^ (1 << uint(parent.chosen)))
			for q := 0; q < nthreads; q++ {
				t := event.ThreadID(q)
				if inherit.has(t) && parent.pendSet.has(t) && !event.Dependent(parent.pend[q], execOp) {
					n.sleep.add(t)
				}
			}
		}
		return n
	}

	// extend runs the current execution forward to a terminal,
	// truncation or sleep-block, applying DPOR updates at every
	// state. It returns false when the schedule limit fires.
	extend := func() bool {
		for {
			if c.truncated() {
				rec.cutShort(c)
				resolveDeferred()
				return !rec.schedule()
			}
			updates()
			en := c.enabled()
			if len(en) == 0 {
				rec.terminal(c)
				resolveDeferred()
				return !rec.schedule()
			}
			n := makeNode()
			pick := event.ThreadID(-1)
			for _, t := range en {
				if !e.sleep || !n.sleep.has(t) {
					pick = t
					break
				}
			}
			if pick < 0 {
				// Every enabled thread is asleep: this
				// execution is redundant.
				nodes = append(nodes, n)
				rec.res.SleepBlocked++
				resolveDeferred()
				return !rec.schedule()
			}
			n.backtrack.add(pick)
			n.done.add(pick)
			n.chosen = pick
			nodes = append(nodes, n)
			st.step(pick)
		}
	}

	if !extend() {
		return rec.finish(c)
	}
	for len(nodes) > 0 {
		maybeDonate()
		d := len(nodes) - 1
		n := nodes[d]
		// Sleeping backtrack candidates are explored like any other:
		// their subtrees sleep-block quickly, but skipping them
		// outright is unsound under selective search — the sibling
		// subtree that would cover them was itself pruned by DPOR, and
		// the fuzz harness (FuzzEngineEquivalence) found programs
		// where the shortcut silently dropped happens-before classes.
		// Sleep sets here prune continuations, never branch choices.
		cand := n.backtrack &^ n.done
		if cand.empty() {
			freeNode(n)
			nodes = nodes[:d]
			// A popped published node leaves the published region; a
			// later re-extension re-uses its depth for a different
			// node, whose reversals must stay local until it is
			// published itself.
			if pubLocal > d {
				pubLocal = d
			}
			continue
		}
		p := cand.first()
		n.done.add(p)
		n.chosen = p
		st.resetTo(base + d)
		st.step(p)
		if !extend() {
			break
		}
	}
	return rec.finish(c)
}
