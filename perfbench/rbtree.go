package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"tinystm/internal/cm"
	"tinystm/internal/core"
	"tinystm/internal/intset"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/tuning"
)

// The paper's evaluation starts the tuner from this deliberately bad
// lock geometry.
var badGeometry = core.Params{Locks: 1 << 8, Shifts: 0, Hier: 1}

// rbRun is one stm-rbtree run: a core.TM in this process, a red-black
// tree of keys/2 elements drawn from [1, keys], and the tuning runtime.
type rbRun struct {
	w    *workload
	tm   *core.TM
	root uint64
	txs  []*core.Tx
	// initial[k] is key k's membership after the build; toggles[k]
	// counts completed toggles (they commute, so only parity matters).
	initial []bool
	toggles []atomic.Uint32
	rt      *tuning.Runtime
	eng     *engine
}

// build makes a fresh TM at the bad geometry and fills the tree.
func (r *rbRun) build(seed uint64) error {
	size := r.w.keys / 2
	tm, err := core.New(core.Config{
		Space: mem.NewSpace(int(size*8 + 1<<16)),
		Locks: badGeometry.Locks, Shifts: badGeometry.Shifts, Hier: badGeometry.Hier,
		Design: core.WriteBack, Clock: core.FetchInc, CM: cm.Suicide,
	})
	if err != nil {
		return err
	}
	r.tm = tm
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *core.Tx) { r.root = intset.NewTree(tx) })
	r.initial = make([]bool, r.w.keys+1)
	r.toggles = make([]atomic.Uint32, r.w.keys+1)
	g := rng.New(seed)
	for n := uint64(0); n < size; {
		k := 1 + g.Uint64n(r.w.keys)
		if r.initial[k] {
			continue
		}
		tm.Atomic(tx, func(tx *core.Tx) { intset.TreeInsert(tx, r.root, k, k) })
		r.initial[k] = true
		n++
	}
	return nil
}

func (r *rbRun) exec(w int, o *op, id uint64) error {
	tx := r.txs[w]
	t0 := r.eng.now()
	switch o.Kind {
	case kLookup:
		r.tm.AtomicRO(tx, func(tx *core.Tx) { intset.TreeContains(tx, r.root, o.Key) })
	case kToggle:
		r.tm.Atomic(tx, func(tx *core.Tx) {
			if !intset.TreeRemove(tx, r.root, o.Key) {
				intset.TreeInsert(tx, r.root, o.Key, o.Key)
			}
		})
		r.toggles[o.Key].Add(1)
	}
	if r.eng.tr != nil {
		r.eng.tr.child(w, "core."+o.Kind.String(), t0, r.eng.now(), id, id)
	}
	return nil
}

// Node layout of intset's red-black tree (documented in
// internal/intset/rbtree.go):
// key, value, left, right, parent, color (0 black, 1 red).
const (
	rbKey, rbLeft, rbRight, rbParent, rbColor = 0, 2, 3, 4, 5
)

// audit checks the red-black invariants and that the tree holds exactly
// the build's keys with every key toggled an odd number of times flipped.
func (r *rbRun) audit() []string {
	var errs []string
	failf := func(format string, args ...any) {
		if len(errs) < maxErrs {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	var keys []uint64
	tx := r.tm.NewTx()
	defer tx.Release()
	r.tm.AtomicRO(tx, func(tx *core.Tx) {
		errs, keys = errs[:0], keys[:0]
		// walk returns the subtree's black height.
		var walk func(n, parent, lo, hi uint64) int
		walk = func(n, parent, lo, hi uint64) int {
			if n == 0 {
				return 1
			}
			k := tx.Load(n + rbKey)
			if k <= lo || k >= hi {
				failf("rbtree: key %d out of order (bounds %d..%d)", k, lo, hi)
			}
			if p := tx.Load(n + rbParent); p != parent {
				failf("rbtree: node %d has parent %d, want %d", k, p, parent)
			}
			red := tx.Load(n+rbColor) == 1
			l, rt := tx.Load(n+rbLeft), tx.Load(n+rbRight)
			if red && (l != 0 && tx.Load(l+rbColor) == 1 || rt != 0 && tx.Load(rt+rbColor) == 1) {
				failf("rbtree: red node %d has a red child", k)
			}
			bl := walk(l, n, lo, k)
			keys = append(keys, k)
			br := walk(rt, n, k, hi)
			if bl != br {
				failf("rbtree: black heights differ under %d (%d vs %d)", k, bl, br)
			}
			if red {
				return bl
			}
			return bl + 1
		}
		root := tx.Load(r.root)
		if root != 0 && tx.Load(root+rbColor) != 0 {
			failf("rbtree: root is red")
		}
		walk(root, 0, 0, r.w.keys+1)
	})
	want := 0
	i := 0
	for k := uint64(1); k <= r.w.keys; k++ {
		in := r.initial[k] != (r.toggles[k].Load()%2 == 1)
		if !in {
			continue
		}
		want++
		for i < len(keys) && keys[i] < k {
			failf("rbtree: key %d present, but its toggles say absent", keys[i])
			i++
		}
		if i < len(keys) && keys[i] == k {
			i++
		} else {
			failf("rbtree: key %d missing (lost toggle)", k)
		}
	}
	for ; i < len(keys); i++ {
		failf("rbtree: key %d present, but its toggles say absent", keys[i])
	}
	if len(keys) != want {
		failf("rbtree: %d keys, want %d", len(keys), want)
	}
	return errs
}

// periodsToBest is the first tuning period whose throughput came within
// 5% of the run's best.
func periodsToBest(evs []tuning.Event) int {
	best := 0.0
	for _, e := range evs {
		if !e.Idle && e.Throughput > best {
			best = e.Throughput
		}
	}
	for _, e := range evs {
		if !e.Idle && e.Throughput >= 0.95*best {
			return e.Period + 1
		}
	}
	return 0
}

// tuningPeriod is the runtime's sample period; three samples make one
// decision, as in the paper, at a tenth of its one-second period so the
// climb fits in a run.
const tuningPeriod = 100 * time.Millisecond

func (r *rbRun) startTuner(seed uint64) error {
	r.rt = tuning.NewRuntime(r.tm, tuning.RuntimeConfig{
		Tuner:  tuning.Config{Initial: badGeometry, Bounds: tuning.DefaultBounds(), Seed: seed},
		Period: tuningPeriod, Samples: 3,
	})
	return r.rt.Start()
}

func (r *rbRun) close() {
	if r.rt != nil {
		r.rt.Stop()
	}
	for _, tx := range r.txs {
		tx.Release()
	}
	r.txs = nil
}

// selfPeakRSSMB is this process's VmHWM.
func selfPeakRSSMB() (float64, error) { return vmHWM(os.Getpid()) }
