package kvstore

import (
	"fmt"
	"sync"

	"tinystm/internal/obs"
	"tinystm/internal/txn"
)

// OpKind names one batch operation.
type OpKind int

// The batch operation set.
const (
	OpGet OpKind = iota
	OpPut
	OpDelete
	OpCAS
	OpAdd
)

// String returns the wire name used by cmd/stmkvd's batch endpoint.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpCAS:
		return "cas"
	case OpAdd:
		return "add"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ParseOpKind maps a wire name to an OpKind.
func ParseOpKind(s string) (OpKind, error) {
	switch s {
	case "get":
		return OpGet, nil
	case "put":
		return OpPut, nil
	case "delete", "del":
		return OpDelete, nil
	case "cas":
		return OpCAS, nil
	case "add", "incr":
		return OpAdd, nil
	default:
		return 0, fmt.Errorf("kvstore: unknown op %q (get, put, delete, cas, add)", s)
	}
}

// Op is one operation of a multi-key atomic batch. Val is the value for
// Put, the delta for Add, and the new value for CAS; Old is CAS's expected
// value.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
	Old  uint64
}

// OpResult is the outcome of one batch operation: Val carries Get's value
// (and Add's result), Found whether Get/Delete found the key, OK whether
// CAS succeeded / Put inserted.
type OpResult struct {
	Val   uint64
	Found bool
	OK    bool
}

// Store binds a Map to its STM and a descriptor pool, exposing the
// self-contained operations a server handler calls: each runs exactly one
// atomic block on a pooled descriptor. The transactional Map methods
// remain available for callers composing their own blocks.
type Store[T txn.Tx] struct {
	sys  txn.System[T]
	m    *Map[T]
	pool *TxPool[T]
	// snap is sys's snapshot view when it provides one (TinySTM with
	// Config.Snapshots): multi-key read-only work — all-Get batches, Len,
	// Scan — then runs in MVCC snapshot mode, wait-free under write
	// pressure, instead of as classic read-only transactions that abort
	// whenever a concurrent writer moves the clock past their snapshot.
	snap txn.SnapshotSystem[T]
	// durable/sink: redo capture and ack-after-durable waiting; see
	// durable.go. Set once via EnableDurability before traffic starts.
	durable bool
	sink    DurabilitySink
	// heat, when attached (SetShardHeat), receives one op plus the retry
	// count per single-key operation, keyed by shard — the server's
	// contention heat map. Nil costs every op one predictable branch.
	heat *obs.ShardHeat
	// ops recycles the single-key operations' state and bodies (keyOp).
	ops sync.Pool
}

// NewStore builds the Map inside sys and wraps it.
func NewStore[T txn.Tx](sys txn.System[T], shards, buckets uint64) *Store[T] {
	s := &Store[T]{sys: sys, m: New[T](sys, shards, buckets), pool: NewTxPool[T](sys)}
	s.ops.New = func() any { return newKeyOp(s) }
	// The type assertion alone is not enough: core.TM satisfies the
	// interface even with the sidecar disabled (AtomicSnap then degrades
	// to AtomicRO), and Scan's bounded per-shard fallback must engage in
	// exactly that case.
	if ss, ok := sys.(txn.SnapshotSystem[T]); ok && ss.SnapshotsEnabled() {
		s.snap = ss
	}
	return s
}

// atomicRO runs body as a snapshot transaction when the system offers
// snapshot mode, as a classic read-only transaction otherwise.
func (s *Store[T]) atomicRO(tx T, body func(T)) {
	if s.snap != nil {
		s.snap.AtomicSnap(tx, body)
		return
	}
	s.sys.AtomicRO(tx, body)
}

// SetShardHeat attaches the per-shard heat map (sized for this store via
// NewShardHeat(Map().Shards())). Attach before traffic starts.
func (s *Store[T]) SetShardHeat(h *obs.ShardHeat) { s.heat = h }

// noteHeat records one finished single-key op against its shard.
func (s *Store[T]) noteHeat(sh uint64, attempts int) {
	if s.heat != nil {
		s.heat.Record(sh, attempts)
	}
}

// Map exposes the underlying transactional map.
func (s *Store[T]) Map() *Map[T] { return s.m }

// Close releases the pooled descriptors back to the TM. The Store must be
// idle.
func (s *Store[T]) Close() { s.pool.Close() }

// keyOp is one single-key operation in flight: its arguments, its
// results and the transactional bodies that read and write them. A body
// handed to the txn.System interface escapes, so a closure built per call
// would cost the call its own heap allocations; these bodies are bound
// once, when the keyOp is built, and Store recycles keyOps through a
// sync.Pool. Every body sets all the results it reports, so a retry (or
// a recycled keyOp) starts clean.
type keyOp[T txn.Tx] struct {
	// Arguments: key, its shard, and val — Put's value, Add's delta,
	// CAS's new value; old is CAS's expected value.
	key, sh, val, old uint64
	// Results: out is Get's value and Add's sum; found is Get's and
	// Delete's; ok is Put's inserted and CAS's swapped; grow asks for a
	// follow-up rehash of the shard.
	out             uint64
	found, ok, grow bool
	// attempts counts the body's executions for the heat map.
	attempts int
	// committed is Do's hook, nil once called.
	committed func()

	get, put, del, cas, add func(T)
}

func newKeyOp[T txn.Tx](s *Store[T]) *keyOp[T] {
	o := &keyOp[T]{}
	o.get = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.out, o.found = s.m.Get(tx, o.key)
	}
	o.put = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.ok = s.m.Put(tx, o.key, o.val)
		o.grow = o.ok && s.m.NeedsGrow(tx, o.sh)
		s.redo(tx, txn.RedoPut, o.key, o.val)
	}
	o.del = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.found = s.m.Delete(tx, o.key)
		if o.found {
			s.redo(tx, txn.RedoDelete, o.key, 0)
		}
	}
	o.cas = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.ok = s.m.CAS(tx, o.key, o.old, o.val)
		if o.ok {
			s.redo(tx, txn.RedoPut, o.key, o.val)
		}
	}
	o.add = func(tx T) {
		//stm:allow-effect heat-map retry counter: monotone, reported after commit, never read in-body
		o.attempts++
		o.out = s.m.Add(tx, o.key, o.val)
		o.grow = s.m.NeedsGrow(tx, o.sh)
		s.redo(tx, txn.RedoPut, o.key, o.out)
	}
	return o
}

// commit calls the committed hook unless it already ran.
func (o *keyOp[T]) commit() {
	if f := o.committed; f != nil {
		o.committed = nil
		f()
	}
}

// Do runs one single-key operation as one transaction and reports its
// outcome the way Apply reports a batch's. It allocates nothing in steady
// state.
//
// committed, when non-nil, is called exactly once: as soon as the
// operation's transaction has committed, before the operation grows a
// shard or waits for its commit to become durable — or, if the operation
// panics before it commits, as the panic unwinds. A caller holding an
// admission slot releases it there: a committed transaction waiting for
// its fsync holds no locks and is no longer running.
func (s *Store[T]) Do(op Op, committed func()) OpResult {
	o := s.ops.Get().(*keyOp[T])
	defer s.ops.Put(o)
	o.key, o.sh, o.val, o.old = op.Key, s.m.Shard(op.Key), op.Val, op.Old
	o.attempts, o.committed = 0, committed
	defer o.commit()
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	switch op.Kind {
	case OpGet:
		s.sys.AtomicRO(tx, o.get)
		s.noteHeat(o.sh, o.attempts)
		return OpResult{Val: o.out, Found: o.found}
	case OpPut:
		s.update(tx, o, o.put)
		return OpResult{OK: o.ok, Found: !o.ok}
	case OpDelete:
		s.update(tx, o, o.del)
		return OpResult{Found: o.found}
	case OpCAS:
		s.update(tx, o, o.cas)
		return OpResult{OK: o.ok}
	case OpAdd:
		s.update(tx, o, o.add)
		return OpResult{Val: o.out, OK: true}
	default:
		panic(fmt.Sprintf("kvstore: unknown op %d", int(op.Kind)))
	}
}

// update runs one single-key update body and its aftermath: the committed
// hook, the heat map, the shard growth the body asked for, and the
// durability wait.
func (s *Store[T]) update(tx T, o *keyOp[T], body func(T)) {
	o.grow = false
	s.sys.Atomic(tx, body)
	o.commit()
	s.noteHeat(o.sh, o.attempts)
	// The ticket must be read before tryGrow: the growth transaction's
	// Begin clears it from the descriptor.
	t := s.ticket(tx)
	if o.grow {
		s.tryGrow(tx, o.sh)
	}
	s.waitDurable(t)
}

// Get returns key's value via a read-only transaction.
func (s *Store[T]) Get(key uint64) (val uint64, found bool) {
	r := s.Do(Op{Kind: OpGet, Key: key}, nil)
	return r.Val, r.Found
}

// Put upserts key and reports whether it was inserted. When the insert
// tips the owning shard over its load factor, the shard is grown in a
// follow-up freeze/rehash transaction before Put returns.
func (s *Store[T]) Put(key, val uint64) (inserted bool) {
	return s.Do(Op{Kind: OpPut, Key: key, Val: val}, nil).OK
}

// Delete removes key, reporting whether it was present.
func (s *Store[T]) Delete(key uint64) (found bool) {
	return s.Do(Op{Kind: OpDelete, Key: key}, nil).Found
}

// CAS atomically replaces key's value with new iff it currently is old.
func (s *Store[T]) CAS(key, old, new uint64) (ok bool) {
	return s.Do(Op{Kind: OpCAS, Key: key, Val: new, Old: old}, nil).OK
}

// Add atomically adds delta to key's value (inserting at delta when
// absent) and returns the new value.
func (s *Store[T]) Add(key, delta uint64) (val uint64) {
	return s.Do(Op{Kind: OpAdd, Key: key, Val: delta}, nil).Val
}

// tryGrow runs the freeze/rehash transaction as best-effort housekeeping:
// the caller's own operation has already committed, so a growth failure —
// the arena cannot fit a doubled directory — must not surface as an error
// for an operation that succeeded. The shard keeps serving with longer
// chains and the next insert retries. Any panic other than the shared
// exhaustion sentinel keeps propagating.
func (s *Store[T]) tryGrow(tx T, sh uint64) {
	defer func() {
		if r := recover(); r != nil && r != txn.ErrSpaceExhausted {
			panic(r)
		}
	}()
	s.sys.Atomic(tx, func(tx T) { s.m.Grow(tx, sh) })
}

// Len returns the live key count via a read-only transaction (snapshot
// mode when available: the per-shard counters span every stripe of the
// map's headers, exactly the scattered read set writers keep moving).
func (s *Store[T]) Len() (n uint64) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	s.atomicRO(tx, func(tx T) { n = s.m.Len(tx) })
	return n
}

// KV is one key/value pair returned by Scan.
type KV struct {
	Key uint64 `json:"key"`
	Val uint64 `json:"val"`
}

// Scan iterates the whole table, returning up to limit pairs (all of
// them when limit <= 0) and the total number of live keys it walked.
//
// With snapshot mode available it runs as ONE snapshot transaction: a
// single commit-ordered point in time that concurrent writers cannot
// abort. Without it (TL2, or Snapshots off) a full-table read-only
// transaction under write pressure can retry unboundedly — the very
// starvation the sidecar exists to fix — so the fallback degrades to one
// read-only transaction PER SHARD: each shard is internally consistent
// and bounded, but the shards are not mutually consistent. The pair
// slices are rebuilt on retry, so a fresh attempt starts clean.
func (s *Store[T]) Scan(limit int) (pairs []KV, total uint64) {
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	if s.snap != nil {
		s.snap.AtomicSnap(tx, func(tx T) {
			pairs = pairs[:0]
			total = 0
			s.m.Range(tx, func(k, v uint64) bool {
				total++
				if limit <= 0 || len(pairs) < limit {
					pairs = append(pairs, KV{Key: k, Val: v})
				}
				return true
			})
		})
		return pairs, total
	}
	for sh := uint64(0); sh < s.m.Shards(); sh++ {
		var shardPairs []KV
		var shardTotal uint64
		s.sys.AtomicRO(tx, func(tx T) {
			shardPairs = shardPairs[:0]
			shardTotal = 0
			s.m.RangeShard(tx, sh, func(k, v uint64) bool {
				shardTotal++
				if limit <= 0 || len(pairs)+len(shardPairs) < limit {
					shardPairs = append(shardPairs, KV{Key: k, Val: v})
				}
				return true
			})
		})
		pairs = append(pairs, shardPairs...)
		total += shardTotal
	}
	return pairs, total
}

// Apply executes ops as ONE atomic transaction: either every operation's
// effect commits or none does, and all Gets observe one consistent
// snapshot. Results are positionally aligned with ops. A batch that only
// reads runs read-only.
func (s *Store[T]) Apply(ops []Op) []OpResult { return s.DoBatch(ops, nil) }

// DoBatch is Apply with Do's committed hook: called exactly once, when
// the transaction has committed or the batch panics before it does.
func (s *Store[T]) DoBatch(ops []Op, committed func()) []OpResult {
	defer func() {
		if committed != nil {
			committed()
		}
	}()
	res := make([]OpResult, len(ops))
	readOnly := true
	for _, op := range ops {
		if op.Kind != OpGet {
			readOnly = false
			break
		}
	}
	tx := s.pool.Get()
	defer s.pool.Put(tx)
	body := func(tx T) {
		for i, op := range ops {
			res[i] = OpResult{}
			switch op.Kind {
			case OpGet:
				res[i].Val, res[i].Found = s.m.Get(tx, op.Key)
			case OpPut:
				res[i].OK = s.m.Put(tx, op.Key, op.Val)
				res[i].Found = !res[i].OK
				s.redo(tx, txn.RedoPut, op.Key, op.Val)
			case OpDelete:
				res[i].Found = s.m.Delete(tx, op.Key)
				if res[i].Found {
					s.redo(tx, txn.RedoDelete, op.Key, 0)
				}
			case OpCAS:
				res[i].OK = s.m.CAS(tx, op.Key, op.Old, op.Val)
				if res[i].OK {
					s.redo(tx, txn.RedoPut, op.Key, op.Val)
				}
			case OpAdd:
				res[i].Val = s.m.Add(tx, op.Key, op.Val)
				res[i].OK = true
				s.redo(tx, txn.RedoPut, op.Key, res[i].Val)
			default:
				panic(fmt.Sprintf("kvstore: unknown batch op %d", int(op.Kind)))
			}
		}
	}
	if readOnly {
		// All-Get batches take the snapshot fast path when the system
		// offers it: one consistent timestamp, no validation, no aborts
		// from concurrent writers. The body is shared with the update
		// path, so it statically reaches the mutators and redo capture,
		// but the all-Get guard above makes those arms unreachable here.
		//stm:allow-write every op is OpGet on this path; the write arms cannot execute
		//stm:allow-redo every op is OpGet on this path; the redo arms cannot execute
		s.atomicRO(tx, body)
		return res
	}
	s.sys.Atomic(tx, body)
	if committed != nil {
		committed()
		committed = nil
	}
	t := s.ticket(tx)
	s.growTouched(tx, ops)
	s.waitDurable(t)
	return res
}

// growTouched runs the freeze/rehash transaction for every shard a batch's
// inserts pushed past the load factor.
func (s *Store[T]) growTouched(tx T, ops []Op) {
	seen := make(map[uint64]bool, 4)
	for _, op := range ops {
		if op.Kind != OpPut && op.Kind != OpAdd {
			continue
		}
		sh := s.m.Shard(op.Key)
		if seen[sh] {
			continue
		}
		seen[sh] = true
		var grow bool
		s.sys.AtomicRO(tx, func(tx T) { grow = s.m.NeedsGrow(tx, sh) })
		if grow {
			s.tryGrow(tx, sh)
		}
	}
}
