package main

import (
	"reflect"
	"testing"
)

// gen draws n ops from a fresh stream of w for seed.
func gen(w *workload, seed uint64, part, parts, n int) []op {
	s := w.newStream(seed, part, parts, w.newZipfs(), w.newRegs())
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestStreamSameSeedSameOps(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := gen(w, 7, 0, 1, 5000), gen(w, 7, 0, 1, 5000)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two streams from one seed differ")
			}
			if c := gen(w, 8, 0, 1, 5000); reflect.DeepEqual(a, c) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
			if c := gen(w, 7, 1, 2, 5000); reflect.DeepEqual(a, c) {
				t.Fatal("two parts of one seed gave the same stream")
			}
		})
	}
}

func TestStreamFollowsMixAndKeyLayout(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var seen [nKinds]int
			for _, o := range gen(w, 3, 0, 1, 20000) {
				seen[o.Kind]++
				switch o.Kind {
				case kPut, kCAS:
					if !w.isRegister(o.Key) || o.Val&0xffffffff != tag(o.Key) {
						t.Fatalf("%v on %d: not a tagged register write", o.Kind, o.Key)
					}
				case kAdd:
					if !w.isCounter(o.Key) {
						t.Fatalf("add on non-counter %d", o.Key)
					}
				case kTransfer:
					if !w.isLedger(o.Key) || !w.isLedger(o.Key2) || o.Key == o.Key2 {
						t.Fatalf("transfer %d->%d outside the ledger", o.Key, o.Key2)
					}
				case kGet, kLookup, kToggle:
					if o.Key > w.keys {
						t.Fatalf("%v on %d beyond %d keys", o.Kind, o.Key, w.keys)
					}
				}
			}
			for k := kind(0); k < nKinds; k++ {
				if (w.mix[k] > 0) != (seen[k] > 0) {
					t.Errorf("%v: mix %d per mille, drew %d", k, w.mix[k], seen[k])
				}
			}
		})
	}
}

// A closed-loop part writes only registers it owns, and the open-loop
// stream routes each owned write to the worker that owns its key.
func TestOwnedRegistersStayWithOneWorker(t *testing.T) {
	w, err := workloadByName("kv-http")
	if err != nil {
		t.Fatal(err)
	}
	for part := 0; part < w.workers; part++ {
		for _, o := range gen(w, 5, part, w.workers, 5000) {
			if (o.Kind == kPut || o.Kind == kCAS) && (o.Owner != part || int(o.Key%uint64(w.workers)) != part) {
				t.Fatalf("part %d generated %v on %d owned by %d", part, o.Kind, o.Key, o.Owner)
			}
		}
	}
}
