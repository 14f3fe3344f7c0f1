package core

import (
	"sync"
	"sync/atomic"
)

// Partial mappings (the paper's concluding future-work direction:
// "combining both execution models, and thus requiring only partial
// mappings"). A mapping may return stf.SharedWorker for a task instead of
// a concrete worker: such a task has no static owner and is *claimed* at
// run time by the first worker whose replay reaches it — a lightweight
// dynamic load-balancing escape hatch inside the otherwise static in-order
// model.
//
// Cost: one compare-and-swap per unmapped task for the winning worker and
// one atomic load for everyone else, plus one bit of shared memory per
// unmapped task — a middle ground between the paper's zero-cost static
// mapping and a centralized scheduler. Mapped tasks keep the original
// zero-shared-cost path.
//
// Correctness: exactly one worker wins the claim, so each task still has a
// unique executor; the synchronization protocol of §3.4 never relied on
// *who* executes a task, only on every worker declaring it — which losers
// do, exactly as for any foreign task. In-order execution per worker is
// preserved, so the no-deadlock argument (the earliest unexecuted task is
// always runnable) carries over: if it is unclaimed, whoever reaches it
// claims it; if claimed, its claimant is at it.

// claimTable tracks claimed task IDs in fixed-size pages so that the flow
// length need not be known in advance. Pages are allocated on demand; the
// page index is guarded by a mutex but cached read-side with an atomic
// pointer, so the steady-state cost of a claim check is two atomic loads.
// The zero value is an empty table; a run's table is pooled with its state
// and reset keeps the pages.
type claimTable struct {
	mu    sync.Mutex
	pages atomic.Pointer[[]*claimPage]
}

const claimPageBits = 12 // 4096 tasks per page

type claimPage struct {
	bits [1 << (claimPageBits - 6)]atomic.Uint64
}

// loaded returns the page index (nil before the first page).
func (t *claimTable) loaded() []*claimPage {
	if ps := t.pages.Load(); ps != nil {
		return *ps
	}
	return nil
}

// reset unclaims every task, keeping the pages. Callers must guarantee that
// no worker of the run that used the table is still running.
func (t *claimTable) reset() {
	for _, p := range t.loaded() {
		clear(p.bits[:])
	}
}

// tryClaim atomically claims task id; it returns true for exactly one
// caller per id. A single atomic fetch-Or decides the race: the caller that
// flipped the bit wins. Unlike a CAS loop, the Or cannot livelock-retry
// when neighboring bits of the word are being claimed concurrently.
func (t *claimTable) tryClaim(id int64) bool {
	page := t.page(id)
	word := &page.bits[(id>>6)&((1<<(claimPageBits-6))-1)]
	bit := uint64(1) << (uint(id) & 63)
	return word.Or(bit)&bit == 0
}

// claimed reports whether task id has been claimed, without claiming it and
// without allocating pages: an id beyond the allocated pages is unclaimed by
// definition. Steal scans use it to skip resolved candidates cheaply.
func (t *claimTable) claimed(id int64) bool {
	ps := t.loaded()
	idx := int(id >> claimPageBits)
	if idx >= len(ps) {
		return false
	}
	word := &ps[idx].bits[(id>>6)&((1<<(claimPageBits-6))-1)]
	return word.Load()&(uint64(1)<<(uint(id)&63)) != 0
}

// page returns the page holding id, allocating it (and any gap before it)
// if needed.
func (t *claimTable) page(id int64) *claimPage {
	idx := int(id >> claimPageBits)
	if ps := t.loaded(); idx < len(ps) {
		return ps[idx]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ps := t.loaded()
	for idx >= len(ps) {
		grown := make([]*claimPage, len(ps)+1)
		copy(grown, ps)
		grown[len(ps)] = &claimPage{}
		ps = grown
	}
	t.pages.Store(&ps)
	return ps[idx]
}
