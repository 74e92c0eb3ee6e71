// Package a exercises txbody violations: effects inside atomic bodies
// that re-execute on abort.
package a

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"stm"
)

func capturedState(tm *stm.TM, ch chan uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	var hits []uint64
	count := 0
	tm.Atomic(tx, func(tx *stm.Tx) {
		v := tx.Load(1)
		hits = append(hits, v) // want `captured slice "hits" appended to inside Atomic body`
		count++                // want `captured variable "count" mutated non-idempotently inside Atomic body`
		ch <- v                // want `channel send inside Atomic body`
	})
}

func concurrencyEffects(tm *stm.TM, mu *sync.Mutex, done chan struct{}) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *stm.Tx) {
		go func() { <-done }() // want `goroutine launched inside Atomic body`
		mu.Lock()              // want `sync.Mutex.Lock inside Atomic body`
		_ = tx.Load(1)
		mu.Unlock() // want `sync.Mutex.Unlock inside Atomic body`
		close(done) // want `channel close inside Atomic body`
	})
}

func ioAndTime(tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		v := tx.Load(2)
		fmt.Println(v)               // want `fmt.Println inside AtomicRO body: I/O re-executes on abort`
		println(v)                   // want `println inside AtomicRO body: I/O re-executes on abort`
		_ = time.Now()               // want `time.Now inside AtomicRO body`
		time.Sleep(time.Millisecond) // want `time.Sleep inside AtomicRO body`
	})
}

func nestedAndFatal(t *testing.T, tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, func(tx *stm.Tx) {
		if tx.Load(3) == 0 {
			t.Fatal("boom") // want `t.Fatal inside Atomic body: it exits via runtime.Goexit`
		}
		tm.Atomic(tx, func(tx *stm.Tx) { // want `nested Atomic call inside Atomic body`
			tx.Store(3, 1)
		})
	})
}

// resetMakesItIdempotent shows the clean pattern: accumulation preceded
// by an in-body reset is per-attempt state, not cross-retry leakage.
func resetMakesItIdempotent(tm *stm.TM) (int, []uint64) {
	tx := tm.NewTx()
	defer tx.Release()
	var hits []uint64
	total := 0
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		hits = hits[:0]
		total = 0
		for i := uint64(0); i < 4; i++ {
			hits = append(hits, tx.Load(i))
			total += int(tx.Load(i))
		}
	})
	return total, hits
}

// pooledOp binds its body once, into a field, the way kvstore's pooled
// single-key operations do: a runner call on the field resolves to the
// literal bound there, and the op's fields are captured state.
type pooledOp[T any] struct {
	n    int
	sum  int
	ch   chan uint64
	run  func(*stm.Tx)
	scan func(*stm.Tx)
	tag  T
}

func newPooledOp[T any]() *pooledOp[T] {
	o := &pooledOp[T]{}
	o.run = func(tx *stm.Tx) {
		o.n++              // want `captured variable "o.n" mutated non-idempotently inside Atomic body`
		o.ch <- tx.Load(1) // want `channel send inside Atomic body`
	}
	o.scan = func(tx *stm.Tx) {
		o.sum = 0
		o.sum += int(tx.Load(2))
	}
	return o
}

func runPooled(tm *stm.TM, o *pooledOp[int]) {
	tx := tm.NewTx()
	defer tx.Release()
	tm.Atomic(tx, o.run)
	tm.AtomicRO(tx, o.scan)
}
