// Package a exercises redoscope violations: Redo calls outside
// update-transaction bodies.
package a

import "stm"

func inReadOnlyBody(tm *stm.TM, tx *stm.Tx) {
	tm.AtomicRO(tx, func(tx *stm.Tx) {
		tx.Redo(stm.RedoOp{Key: 1}) // want `Redo inside AtomicRO body`
	})
}

func inSnapshotBody(tm *stm.TM, tx *stm.Tx) {
	tm.AtomicSnap(tx, func(tx *stm.Tx) {
		tx.Redo(stm.RedoOp{Key: 1}) // want `Redo inside AtomicSnap body`
	})
}

func logPut(tx *stm.Tx, k, v uint64) {
	tx.Redo(stm.RedoOp{Key: k, Val: v})
}

func reachedThroughHelper(tm *stm.TM, tx *stm.Tx) {
	body := func(tx *stm.Tx) {
		logPut(tx, 1, 2)
	}
	tm.AtomicRO(tx, body) // want `AtomicRO body reaches Redo`
}

func structuralTransaction(tm *stm.TM) {
	tx := tm.NewTx()
	defer tx.Release()
	tx.Begin(false)
	tx.Redo(stm.RedoOp{Key: 1}) // want `Redo on descriptor "tx" driven by a raw Begin`
	tx.Commit()
}

// updateBodiesMayRedo is the legitimate shape: redo records belong to
// update-transaction bodies.
func updateBodiesMayRedo(tm *stm.TM, tx *stm.Tx) {
	tm.Atomic(tx, func(tx *stm.Tx) {
		tx.Store(1, 2)
		tx.Redo(stm.RedoOp{Key: 1, Val: 2})
	})
}

// fieldOp binds its body once, into a field; the runner call on the field
// is checked like one on a literal.
type fieldOp struct {
	key uint64
	get func(*stm.Tx)
}

func newFieldOp() *fieldOp {
	o := &fieldOp{}
	o.get = func(tx *stm.Tx) {
		logPut(tx, o.key, 0)
	}
	return o
}

func viaField(tm *stm.TM, tx *stm.Tx, o *fieldOp) {
	tm.AtomicRO(tx, o.get) // want `AtomicRO body reaches Redo`
}
