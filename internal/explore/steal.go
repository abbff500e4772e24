package explore

import (
	"errors"
	"fmt"

	"repro/internal/event"
)

// Unit is one work-stealing DPOR unit: the subtree beneath a pinned
// choice prefix, explored by ExploreDPORUnit, plus the coordinator's
// shared handles. It is the only way to pin a prefix: the other
// engines always search from the initial state. The zero Unit is the
// whole schedule tree with nothing shared, which is what
// NewDPOR(...).Explore runs.
type Unit struct {
	// Prefix pins the first len(Prefix) scheduling choices: the engine
	// replays them and explores only the subtree beneath. A non-empty
	// Prefix requires Steal, which receives the backtrack points that
	// land inside it.
	Prefix []event.ThreadID

	// SleepSeed is the sleep set (a thread bitmask) of the state
	// reached after replaying Prefix — the root of the explored
	// subtree — computed by the coordinator so DPOR with sleep sets
	// prunes beneath a pinned prefix exactly as the sequential engine
	// would at that node. Zero means no thread sleeps at the root.
	// Ignored without sleep sets.
	SleepSeed uint64

	// Steal, when non-nil, puts the DPOR engine in work-stealing mode:
	// backtrack points that escape the pinned prefix are handed over,
	// and pending local branches can be donated to starving workers.
	// See the Steal interface.
	Steal Steal

	// Dedup, when non-nil, replaces the engine's own distinctness
	// sets. Sharing one Dedup across a search's units keeps the merged
	// #HBRs/#lazy HBRs/#states exact; the unit's Result then counts
	// only its own fresh discoveries and carries no States.
	Dedup *Dedup

	// Budget, when non-nil, is the search-wide schedule budget shared
	// by every unit; the unit stops with HitLimit set when it drains.
	Budget *Budget
}

// validate reports a unit the engine cannot explore under opt. Units
// come from the work-stealing coordinator, so a failure is a
// coordinator bug.
func (u Unit) validate(opt Options) error {
	if len(u.Prefix) > 0 && u.Steal == nil {
		return errors.New("explore: a unit with a pinned prefix needs a Steal coordinator")
	}
	if ms := opt.maxSteps(); len(u.Prefix) > ms {
		return fmt.Errorf("explore: prefix length %d exceeds step bound %d", len(u.Prefix), ms)
	}
	return nil
}

// Steal is the coordination surface of work-stealing parallel DPOR
// (implemented by the campaign package, consumed by the DPOR engine
// through Unit.Steal).
//
// The scheme: every concurrently explored subtree is a *unit* — a
// pinned choice prefix plus the sleep set at its end, nothing else.
// Workers replay the prefix and run real DPOR beneath it. Two
// situations cross a unit's boundary and go through this interface
// instead of the engine's local backtrack sets:
//
//   - A race reversal whose backtrack point lies at a depth the unit
//     does not own (inside its pinned prefix, or at a stack node it
//     has already published) *escapes*: the engine computes the exact
//     Flanagan–Godefroid backtrack addition for that node and hands it
//     over. The coordinator deduplicates the addition against the
//     node's global claim set and turns fresh branches into new units.
//   - When idle workers are starving, a busy engine *donates* its
//     shallowest stack node with pending backtrack candidates: the
//     node (and every unpublished node above it) is published with its
//     locally claimed branch set, and the pending branches become
//     units for other workers instead of local work.
//
// Every unit's proper prefixes are published before the unit becomes
// visible, so an escape always finds its target node. All methods are
// invoked from the engine's own goroutine; implementations synchronise
// internally.
//
// The published claim sets make the union of all units' explorations
// exactly the least fixed point that sequential DPOR computes: each
// backtrack addition is a pure function of the execution trace that
// produced it, and each claimed branch is explored exactly once. With
// sleep sets disabled the merged Result counters are therefore
// byte-identical to sequential DPOR's (see the campaign package's
// exactness tests). Sleep sets make the *schedule list* (not the
// coverage) order-dependent, so with sleep sets the merged coverage
// counters remain exact while #schedules/#sleep-blocked may differ
// from the sequential engine's.
type Steal interface {
	// Starving reports whether idle workers outnumber the queued
	// units — the signal that donating pending branches would
	// actually feed another worker rather than pile stock the donor
	// ends up re-popping itself. The engine polls it at schedule
	// boundaries; it must be cheap (atomic loads).
	Starving() bool

	// Publish registers the node reached by the given choice prefix
	// as globally claimable. claimed holds the branches (a thread
	// bitmask) the publishing engine has already explored or is
	// exploring; pending holds branches it offers to give away — the
	// coordinator records claimed|pending as taken, creates one unit
	// per pending branch that was not already claimed in the table,
	// and returns that shipped subset (the engine keeps exploring the
	// rest locally).
	// info, when non-nil, carries the node's sleep-set context so
	// units branching off it (now or through later escapes) inherit
	// the sleep set the sequential engine would compute; nil when the
	// search runs without sleep sets. prefix and info.Pend are views
	// into engine state: implementations must copy what they retain.
	Publish(prefix []event.ThreadID, claimed, pending uint64, info *NodeInfo) (shipped uint64)

	// Escape hands over a backtrack addition (a thread bitmask,
	// computed exactly as sequential DPOR would) for a published node
	// of a *foreign* prefix — one the escaping engine owns no stack
	// node for. The coordinator claims the fresh branches and creates
	// one unit per branch.
	// prefix is a view into engine state: implementations must copy
	// what they retain.
	Escape(prefix []event.ThreadID, cands uint64)

	// Claim claims a backtrack addition for a published node the
	// calling engine still owns on its own stack, and returns the
	// subset that was fresh: the caller folds it into the node's
	// local backtrack set and explores in place — no unit shipping,
	// no prefix replay. The non-fresh rest is someone else's (or was
	// already claimed here earlier).
	Claim(prefix []event.ThreadID, cands uint64) (fresh uint64)
}

// NodeInfo is the sleep-set context of a published node, captured by
// the owning engine at publish time. A coordinator that ships a unit
// for branch t of the node derives the unit's root sleep set
// (Unit.SleepSeed) exactly as the sequential engine's child-node
// rule: every thread in sleep ∪ (done-before-t ∖ {t}) stays asleep iff
// its pending operation at the node is independent of the operation t
// executes there.
type NodeInfo struct {
	// Sleep is the node's own sleep set (thread bitmask).
	Sleep uint64
	// Pend[q] is thread q's pending operation at the node, valid where
	// PendSet has bit q. The slice is a view into engine state:
	// implementations must copy what they retain.
	Pend    []event.Op
	PendSet uint64
}

// StealStats summarises one work-stealing parallel search; attached to
// the merged Result by the campaign coordinator.
type StealStats struct {
	// Workers is the size of the worker pool.
	Workers int `json:"workers"`
	// Units counts frontier units executed (the initial root unit
	// plus every donated or escaped branch).
	Units int `json:"units"`
	// Donated counts units created by starving-triggered donation of
	// pending backtrack branches.
	Donated int `json:"donated"`
	// Escaped counts units created from backtrack points that escaped
	// a worker's prefix.
	Escaped int `json:"escaped"`
	// LocalClaims counts backtrack additions to published nodes that
	// were claimed through the shared table but explored in place by
	// the owning worker (no unit shipped).
	LocalClaims int `json:"local_claims"`
	// Steals counts units a worker took from another worker's stripe
	// of the steal deque.
	Steals int `json:"steals"`
}
