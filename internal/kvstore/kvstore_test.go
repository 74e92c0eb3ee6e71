package kvstore

import (
	"fmt"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
)

func newTM(t testing.TB, d core.Design, words int) *core.TM {
	t.Helper()
	return core.MustNew(core.Config{Space: mem.NewSpace(words), Design: d})
}

// TestMapAgainstModel drives random operations against a plain Go map and
// checks every observable result, across both memory designs and both a
// single-shard and a sharded layout.
func TestMapAgainstModel(t *testing.T) {
	for _, d := range []core.Design{core.WriteBack, core.WriteThrough} {
		for _, shards := range []uint64{1, 8} {
			t.Run(fmt.Sprintf("%v/shards=%d", d, shards), func(t *testing.T) {
				tm := newTM(t, d, 1<<20)
				s := NewStore[*core.Tx](tm, shards, 4)
				defer s.Close()
				model := map[uint64]uint64{}
				r := rng.New(99)
				const keyRange = 512
				for i := 0; i < 20000; i++ {
					k := r.Uint64n(keyRange)
					switch r.Intn(10) {
					case 0, 1, 2: // put
						v := r.Uint64()
						_, had := model[k]
						if ins := s.Put(k, v); ins == had {
							t.Fatalf("op %d: Put(%d) inserted=%v, model had=%v", i, k, ins, had)
						}
						model[k] = v
					case 3: // delete
						_, had := model[k]
						if found := s.Delete(k); found != had {
							t.Fatalf("op %d: Delete(%d) found=%v, model had=%v", i, k, found, had)
						}
						delete(model, k)
					case 4: // cas
						old, had := model[k]
						nv := r.Uint64()
						ok := s.CAS(k, old, nv)
						if ok != had {
							t.Fatalf("op %d: CAS(%d, old=%d) ok=%v, model had=%v", i, k, old, ok, had)
						}
						if had {
							model[k] = nv
						}
					case 5: // add
						nv := s.Add(k, 3)
						model[k] += 3
						if model[k] == 3 && nv != 3 {
							// inserted fresh
							t.Fatalf("op %d: Add(%d) fresh returned %d", i, k, nv)
						}
						if nv != model[k] {
							t.Fatalf("op %d: Add(%d) = %d, model %d", i, k, nv, model[k])
						}
					default: // get
						v, found := s.Get(k)
						mv, had := model[k]
						if found != had || (had && v != mv) {
							t.Fatalf("op %d: Get(%d) = (%d,%v), model (%d,%v)", i, k, v, found, mv, had)
						}
					}
				}
				if n := s.Len(); n != uint64(len(model)) {
					t.Fatalf("Len = %d, model %d", n, len(model))
				}
				for k, v := range model {
					got, found := s.Get(k)
					if !found || got != v {
						t.Fatalf("final Get(%d) = (%d,%v), want (%d,true)", k, got, found, v)
					}
				}
			})
		}
	}
}

// TestGrowPreservesContents forces directory doublings and verifies no key
// is lost or duplicated, and that directories actually grew.
func TestGrowPreservesContents(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<20)
	s := NewStore[*core.Tx](tm, 2, 2)
	defer s.Close()
	const n = 4000
	for k := uint64(0); k < n; k++ {
		s.Put(k, k*7)
	}
	tx := tm.NewTx()
	defer tx.Release()
	var b0, b1 uint64
	tm.AtomicRO(tx, func(tx *core.Tx) {
		_, b0 = s.Map().ShardLoad(tx, 0)
		_, b1 = s.Map().ShardLoad(tx, 1)
	})
	if b0 <= 2 || b1 <= 2 {
		t.Fatalf("directories never grew: buckets = %d, %d", b0, b1)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for k := uint64(0); k < n; k++ {
		if v, found := s.Get(k); !found || v != k*7 {
			t.Fatalf("Get(%d) = (%d,%v) after growth", k, v, found)
		}
	}
}

// TestApplyBatchSemantics checks positional results and that a batch's
// reads come from one snapshot that includes the batch's own writes.
func TestApplyBatchSemantics(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<18)
	s := NewStore[*core.Tx](tm, 4, 4)
	defer s.Close()
	s.Put(1, 10)
	s.Put(2, 20)

	res := s.Apply([]Op{
		{Kind: OpGet, Key: 1},
		{Kind: OpPut, Key: 3, Val: 30},
		{Kind: OpGet, Key: 3}, // sees the batch's own put
		{Kind: OpCAS, Key: 2, Old: 20, Val: 21},
		{Kind: OpGet, Key: 2},         // sees the CAS result
		{Kind: OpAdd, Key: 4, Val: 5}, // fresh insert via add
		{Kind: OpDelete, Key: 1},
		{Kind: OpGet, Key: 1},                 // sees the delete
		{Kind: OpCAS, Key: 9, Old: 0, Val: 1}, // absent key: fails
	})
	type exp struct {
		val   uint64
		found bool
		ok    bool
	}
	want := []exp{
		{10, true, false},
		{0, false, true},
		{30, true, false},
		{0, false, true},
		{21, true, false},
		{5, false, true},
		{0, true, false},
		{0, false, false},
		{0, false, false},
	}
	for i, w := range want {
		g := res[i]
		if g.Val != w.val || g.Found != w.found || g.OK != w.ok {
			t.Fatalf("op %d: got %+v, want %+v", i, g, w)
		}
	}
	if n := s.Len(); n != 3 { // keys 2, 3, 4
		t.Fatalf("Len after batch = %d, want 3", n)
	}
}

func TestApplyReadOnlyBatchUsesROPath(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<18)
	s := NewStore[*core.Tx](tm, 2, 4)
	defer s.Close()
	s.Put(5, 55)
	before := tm.Stats()
	res := s.Apply([]Op{{Kind: OpGet, Key: 5}, {Kind: OpGet, Key: 6}})
	if !res[0].Found || res[0].Val != 55 || res[1].Found {
		t.Fatalf("read-only batch results wrong: %+v", res)
	}
	delta := tm.Stats().Sub(before)
	if delta.Commits != 1 {
		t.Fatalf("read-only batch should be one commit, got %d", delta.Commits)
	}
}

func TestMixOpDrivesAllPaths(t *testing.T) {
	tm := newTM(t, core.WriteBack, 1<<20)
	s := NewStore[*core.Tx](tm, 4, 8)
	defer s.Close()
	Preload[*core.Tx](tm, s.Map(), 256, 1)
	op := MixOp[*core.Tx](tm, s.Map(), Mix{
		Keys: 256, Theta: 0.9, ReadPct: 50, CASPct: 20, BatchPct: 10, BatchSize: 3,
	})
	tx := tm.NewTx()
	defer tx.Release()
	w := &Worker{ID: 0, Rng: rng.New(4)}
	for i := 0; i < 2000; i++ {
		op(w, tx)
	}
	if s.Len() < 256 {
		t.Fatalf("mix deleted keys it should not: Len=%d", s.Len())
	}
	if c, _ := tm.CommitAbortCounts(); c < 2000 {
		t.Fatalf("expected >= one commit per op, got %d", c)
	}
}

// TestStoreOpsAllocFree pins the single-key operations at zero heap
// allocations in steady state with durability off: their bodies are
// bound once per pooled keyOp, not built per call.
func TestStoreOpsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts and drops pooled items")
	}
	tm := newTM(t, core.WriteBack, 1<<20)
	s := NewStore[*core.Tx](tm, 8, 64)
	defer s.Close()
	const keys = 64
	for k := uint64(0); k < keys; k++ {
		s.Put(k, k)
	}
	var k uint64
	next := func() uint64 { k = (k + 1) % keys; return k }
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"get", func() { s.Get(next()) }},
		{"put", func() { s.Put(next(), 7) }},
		{"add", func() { s.Add(next(), 1) }},
		{"cas", func() { key := next(); v, _ := s.Get(key); s.CAS(key, v, v+1) }},
	} {
		if allocs := testing.AllocsPerRun(1000, op.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs per op, want 0", op.name, allocs)
		}
	}
}
