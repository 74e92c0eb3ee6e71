package kvstore

import (
	"fmt"
	"sync"
	"testing"

	"tinystm/internal/core"
	"tinystm/internal/mem"
	"tinystm/internal/rng"
	"tinystm/internal/txn"
	"tinystm/internal/wal"
)

// walTestSink acks an operation once its commit's redo records are
// fsynced — the same adapter kvserver uses.
type walTestSink struct{ log *wal.Log }

func (s walTestSink) WaitDurable(t txn.DurableTicket) error { return t.(*wal.Pending).Wait() }

// durableStore wires the full group-commit path on an in-memory
// filesystem: TM redo hook -> wal.Log -> sink the store blocks on.
func durableStore(t *testing.T, fs *wal.MemFS, snapshots bool) (*Store[*core.Tx], *wal.Log, *core.TM) {
	t.Helper()
	tm := core.MustNew(core.Config{
		Space: mem.NewSpace(1 << 20), Design: core.WriteBack, Snapshots: snapshots,
	})
	s := NewStore[*core.Tx](tm, 4, 8)
	l, err := wal.Open(wal.Config{Dir: "wal", FS: fs})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := s.EnableDurability(walTestSink{log: l}); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket {
		return l.Append(epoch, ts, ops)
	})
	return s, l, tm
}

// TestEffectiveWriteSemantics pins down what gets logged: effective state
// changes only. A failed CAS and a Delete of a missing key leave no
// record; an Add logs its RESULT as a plain put, so replay never has to
// re-execute arithmetic.
func TestEffectiveWriteSemantics(t *testing.T) {
	fs := wal.NewMemFS()
	s, l, tm := durableStore(t, fs, false)
	defer s.Close()

	s.Put(1, 5)
	if s.CAS(1, 999, 7) {
		t.Fatal("CAS with wrong old value succeeded")
	}
	if !s.CAS(1, 5, 9) {
		t.Fatal("CAS with right old value failed")
	}
	s.Add(2, 7)
	s.Add(2, 3)
	if s.Delete(3) {
		t.Fatal("Delete of missing key reported found")
	}
	s.Delete(1)

	tm.SetRedoHook(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	state, stats, err := wal.Replay(fs, "wal")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	// put(1,5), cas->9, add->7, add->10, delete(1): survivors {2:10}.
	if len(state) != 1 || state[2] != 10 {
		t.Fatalf("replayed state = %v, want map[2:10]", state)
	}
	// 5 effective writes; the failed CAS and missed Delete logged nothing.
	if stats.Ops != 5 {
		t.Fatalf("replayed %d ops, want 5 (stats %+v)", stats.Ops, stats)
	}
}

// TestAckedStoreOpsSurviveKillAtAnyPoint is the end-to-end durability
// property at the Store surface: sweep the crash point across every WAL
// write the workload produces; whatever the Store acked before the crash
// must be exactly the state recovery rebuilds — nothing lost, and nothing
// unacked resurrected.
func TestAckedStoreOpsSurviveKillAtAnyPoint(t *testing.T) {
	const ops = 30
	for n := 1; ; n++ {
		fs := wal.NewMemFS()
		s, l, tm := durableStore(t, fs, false)
		// Arm after Open so the segment header is already durable and the
		// n-th DATA write is the one that tears.
		fs.CrashAtWrite(n)

		model := map[uint64]uint64{}
		r := rng.New(uint64(n))
		crashed := false
		for i := 0; i < ops && !crashed; i++ {
			k := r.Uint64n(7)
			// An op that panics with DurabilityError committed in memory
			// but was never acked; it must not appear after recovery.
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						if _, ok := rec.(*DurabilityError); !ok {
							panic(rec)
						}
						crashed = true
					}
				}()
				switch r.Intn(4) {
				case 0:
					v := r.Uint64n(1000)
					s.Put(k, v)
					model[k] = v
				case 1:
					s.Delete(k)
					delete(model, k)
				case 2:
					model[k] = s.Add(k, 3)
				default:
					old, had := model[k]
					if s.CAS(k, old, old+1) != had {
						t.Fatalf("crash %d op %d: CAS disagreed with model", n, i)
					}
					if had {
						model[k] = old + 1
					}
				}
			}()
		}
		tm.SetRedoHook(nil)
		l.Close()
		s.Close()

		if !crashed {
			// The sweep passed the end of the workload's writes: done.
			return
		}
		fs.Crash(2) // restart with a couple of torn bytes past the durable prefix
		state, _, err := wal.Replay(fs, "wal")
		if err != nil {
			t.Fatalf("crash at write %d: Replay: %v", n, err)
		}
		for k, v := range model {
			if got, ok := state[k]; !ok || got != v {
				t.Fatalf("crash at write %d: acked %d=%d, recovered %v", n, k, v, state)
			}
		}
		if len(state) != len(model) {
			t.Fatalf("crash at write %d: recovered extra keys: state=%v acked=%v", n, state, model)
		}
	}
}

// TestCheckpointTruncateEquivalence runs the full checkpoint-then-truncate
// protocol repeatedly UNDER concurrent writers and checks the invariant
// the protocol promises: at every moment, {newest checkpoint + surviving
// segments} replays to a state consistent with what was acked. Run with
// -race this also proves CheckpointScan coexists with the redo hook.
func TestCheckpointTruncateEquivalence(t *testing.T) {
	fs := wal.NewMemFS()
	s, l, tm := durableStore(t, fs, true) // snapshots on: CheckpointScan must work
	defer s.Close()

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Uint64n(64)
				switch i % 3 {
				case 0:
					s.Put(k, r.Uint64n(1000))
				case 1:
					s.Add(k, 1)
				default:
					s.Delete(k)
				}
			}
		}(w)
	}

	ckptIdx := uint64(1)
	for round := 0; round < 5; round++ {
		segIdx, err := l.Rotate()
		if err != nil {
			t.Fatalf("round %d: Rotate: %v", round, err)
		}
		pairs, epoch, ts, ok := s.CheckpointScan()
		if !ok {
			t.Fatal("CheckpointScan not available with snapshots on")
		}
		if err := wal.WriteCheckpoint(fs, "wal", ckptIdx, epoch, ts, pairs); err != nil {
			t.Fatalf("round %d: WriteCheckpoint: %v", round, err)
		}
		if err := l.DropSegmentsBefore(segIdx); err != nil {
			t.Fatalf("round %d: DropSegmentsBefore: %v", round, err)
		}
		if err := wal.RemoveCheckpointsBefore(fs, "wal", ckptIdx); err != nil {
			t.Fatalf("round %d: RemoveCheckpointsBefore: %v", round, err)
		}
		ckptIdx++
	}

	close(stop)
	wg.Wait()
	tm.SetRedoHook(nil)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Quiesced: replay of the truncated log must equal the live table.
	want, _, _, ok := s.CheckpointScan()
	if !ok {
		t.Fatal("final CheckpointScan failed")
	}
	state, stats, err := wal.Replay(fs, "wal")
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !stats.CheckpointFound {
		t.Fatalf("no checkpoint found after %d rounds (stats %+v)", ckptIdx-1, stats)
	}
	if len(state) != len(want) {
		t.Fatalf("replayed %d keys, live table has %d", len(state), len(want))
	}
	for k, v := range want {
		if state[k] != v {
			t.Fatalf("key %d: replayed %d, live %d", k, state[k], v)
		}
	}
}

// TestLoadAfterEnableDurabilityPanics: reloading replayed records through
// a live log would double them; the guard must be loud.
func TestLoadAfterEnableDurabilityPanics(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 18), Design: core.WriteBack})
	s := NewStore[*core.Tx](tm, 2, 4)
	defer s.Close()
	if err := s.EnableDurability(nil); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Load after EnableDurability did not panic")
		}
	}()
	s.Load(map[uint64]uint64{1: 1})
}

// orderSink records, at each durability wait, how many committed hooks
// had run by then.
type orderSink struct {
	hooks *int
	seen  []int
}

func (s *orderSink) WaitDurable(txn.DurableTicket) error {
	s.seen = append(s.seen, *s.hooks)
	return nil
}

// TestCommittedHookRunsBeforeDurabilityWait pins Do's and DoBatch's hook
// contract: called exactly once per operation, and for an update before
// the operation waits for durability.
func TestCommittedHookRunsBeforeDurabilityWait(t *testing.T) {
	tm := core.MustNew(core.Config{Space: mem.NewSpace(1 << 20), Design: core.WriteBack})
	s := NewStore[*core.Tx](tm, 4, 8)
	defer s.Close()
	hooks := 0
	sink := &orderSink{hooks: &hooks}
	if err := s.EnableDurability(sink); err != nil {
		t.Fatal(err)
	}
	tm.SetRedoHook(func(epoch, ts uint64, ops []txn.RedoOp) txn.DurableTicket { return ops })
	committed := func() { hooks++ }
	s.Do(Op{Kind: OpPut, Key: 1, Val: 1}, committed)
	s.Do(Op{Kind: OpAdd, Key: 1, Val: 1}, committed)
	s.Do(Op{Kind: OpGet, Key: 1}, committed)
	s.DoBatch([]Op{{Kind: OpPut, Key: 2, Val: 2}, {Kind: OpDelete, Key: 1}}, committed)
	s.DoBatch([]Op{{Kind: OpGet, Key: 2}}, committed)
	if hooks != 5 {
		t.Errorf("committed hook ran %d times for 5 operations", hooks)
	}
	if want := []int{1, 2, 4}; fmt.Sprint(sink.seen) != fmt.Sprint(want) {
		t.Errorf("hooks run at each durability wait = %v, want %v", sink.seen, want)
	}
}
