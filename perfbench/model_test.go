package main

import (
	"strings"
	"testing"
)

// durableModel returns a kv-write-durable model after a few acked ops,
// and the table a correct server would hold afterwards.
func durableModel(t *testing.T) (*model, []uint64, []bool) {
	t.Helper()
	w, err := workloadByName("kv-write-durable")
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(w)
	add := op{Kind: kAdd, Key: w.ledger + 5, Val: 3}
	tr := op{Kind: kTransfer, Key: 1, Key2: 2, Val: 40}
	for _, o := range []*op{&add, &tr} {
		m.issue(o)
	}
	m.add(add.Key, add.Val, counterBase+3)
	m.transfer(&tr)
	table := make([]uint64, w.keys)
	present := make([]bool, w.keys)
	for k := range table {
		table[k], present[k] = w.preloadVal(uint64(k)), true
	}
	table[add.Key] += 3
	table[1] += 40
	table[2] -= 40
	return m, table, present
}

func TestAuditAcceptsCorrectTable(t *testing.T) {
	m, table, present := durableModel(t)
	m.final(table, present)
	if n, errs := m.violations(); n != 0 {
		t.Fatalf("%d violations on a correct table: %v", n, errs)
	}
}

func TestAuditRejectsLostWrite(t *testing.T) {
	m, table, present := durableModel(t)
	table[m.w.ledger+5] -= 3 // the acked Add never landed
	m.final(table, present)
	if n, errs := m.violations(); n == 0 || !strings.Contains(errs[0], "lost") {
		t.Fatalf("lost Add not reported: %d %v", n, errs)
	}
}

func TestAuditRejectsHalfTransfer(t *testing.T) {
	m, table, present := durableModel(t)
	table[2] += 40 // one leg of the atomic transfer lost
	m.final(table, present)
	if n, _ := m.violations(); n == 0 {
		t.Fatal("torn transfer not reported")
	}
	var pairs []kvPair
	for k, v := range table {
		pairs = append(pairs, kvPair{uint64(k), v})
	}
	m2, _, _ := durableModel(t)
	m2.scan(pairs, uint64(len(pairs)))
	if n, errs := m2.violations(); n == 0 || !strings.Contains(errs[0], "ledger total") {
		t.Fatalf("scan missed the broken ledger total: %d %v", n, errs)
	}
}

func TestAuditRegisterLastWriterWins(t *testing.T) {
	w, err := workloadByName("kv-read")
	if err != nil {
		t.Fatal(err)
	}
	k := w.registerBase() + 9
	v1, v2 := 1<<32|tag(k), 2<<32|tag(k)
	check := func(final uint64, writes ...regWrite) int {
		m := newModel(w)
		for _, x := range writes {
			m.write(x.key, x.val, x.issue, x.acked)
		}
		table, present := make([]uint64, w.keys), make([]bool, w.keys)
		for i := range table {
			table[i], present[i] = w.preloadVal(uint64(i)), true
		}
		table[k] = final
		m.final(table, present)
		n, _ := m.violations()
		return n
	}
	// Sequential writes: only the later one may survive.
	if n := check(v2, regWrite{k, v1, 10, 20}, regWrite{k, v2, 30, 40}); n != 0 {
		t.Errorf("later write rejected: %d", n)
	}
	if n := check(v1, regWrite{k, v1, 10, 20}, regWrite{k, v2, 30, 40}); n == 0 {
		t.Error("a write that began after the survivor was acked was lost, unreported")
	}
	// Overlapping writes: either may survive.
	if n := check(v1, regWrite{k, v1, 10, 40}, regWrite{k, v2, 20, 30}); n != 0 {
		t.Errorf("overlapping survivor rejected: %d", n)
	}
	if n := check(tag(k), regWrite{k, v1, 10, 20}); n == 0 {
		t.Error("an acked write lost to the preload value went unreported")
	}
}

func TestAuditChecksReads(t *testing.T) {
	w, err := workloadByName("kv-read")
	if err != nil {
		t.Fatal(err)
	}
	m := newModel(w)
	k := w.registerBase() + 3
	m.get(k, 5<<32|tag(k), true)
	if n, _ := m.violations(); n != 0 {
		t.Fatal("a tagged value was rejected")
	}
	m.get(k, tag(k+1), true)
	m.get(k, 0, false)
	if n, _ := m.violations(); n != 2 {
		t.Fatalf("want 2 violations (foreign value, missing key), got %d", n)
	}
}
