package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// model is the audit's expectation of the key-value table. Executors
// report every outcome to it as it happens; Gets and scans are checked
// online and the final table after the run.
//
// Ledger and counter keys change only by Add, which commutes, so their
// final value is the preload plus every acked delta. Register writes do
// not commute; the final value must come from an acked write that no
// other write on the key started after (last writer wins in real time).
type model struct {
	w *workload
	// issued bounds what a Get may see: the sum of |deltas| issued per
	// ledger or counter key. acked is the sum of acked deltas.
	issued, acked []atomic.Uint64
	// unsure marks keys an op with an unknown outcome touched; their
	// final value is not checked.
	unsure []atomic.Bool

	mu     sync.Mutex
	writes []regWrite
	errs   []string
	nerrs  int
}

// regWrite is one acked register write with its real-time interval
// (nanoseconds since the run began).
type regWrite struct {
	key, val     uint64
	issue, acked int64
}

const maxErrs = 20

func newModel(w *workload) *model {
	return &model{
		w:      w,
		issued: make([]atomic.Uint64, w.keys),
		acked:  make([]atomic.Uint64, w.keys),
		unsure: make([]atomic.Bool, w.keys),
	}
}

func (m *model) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nerrs++
	if len(m.errs) < maxErrs {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// violations returns the count and the first few messages.
func (m *model) violations() (int, []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nerrs, append([]string(nil), m.errs...)
}

// issue records an op before it is sent.
func (m *model) issue(o *op) {
	switch o.Kind {
	case kAdd:
		m.issued[o.Key].Add(o.Val)
	case kTransfer:
		m.issued[o.Key].Add(o.Val)
		m.issued[o.Key2].Add(o.Val)
	}
}

// unknown records an op whose outcome the client could not learn.
func (m *model) unknown(o *op) {
	switch o.Kind {
	case kPut, kCAS, kAdd:
		m.unsure[o.Key].Store(true)
	case kTransfer:
		m.unsure[o.Key].Store(true)
		m.unsure[o.Key2].Store(true)
	}
}

// get checks one read against what the key may hold.
func (m *model) get(k, v uint64, found bool) {
	if !found {
		m.fail("get %d: key missing", k)
		return
	}
	m.checkVal("get", k, v)
}

func (m *model) checkVal(what string, k, v uint64) {
	w := m.w
	switch {
	case w.isRegister(k):
		if v&0xffffffff != tag(k) {
			m.fail("%s %d: value %#x was never written to this key", what, k, v)
		}
	case w.isCounter(k):
		if v < counterBase || v-counterBase > m.issued[k].Load() {
			m.fail("%s %d: counter %d outside [%d, %d]", what, k, v, counterBase, counterBase+m.issued[k].Load())
		}
	default:
		d := v - ledgerBase
		if -d < d {
			d = -d
		}
		if d > m.issued[k].Load() {
			m.fail("%s %d: ledger %d moved more than the %d issued", what, k, v, m.issued[k].Load())
		}
	}
}

// write records an acked register write.
func (m *model) write(k, v uint64, issue, acked int64) {
	m.mu.Lock()
	m.writes = append(m.writes, regWrite{k, v, issue, acked})
	m.mu.Unlock()
}

// cas checks a CAS outcome against the generator's expectation.
func (m *model) cas(o *op, ok bool, issue, acked int64) {
	if ok != o.Expect {
		m.fail("cas %d: ok=%v, want %v", o.Key, ok, o.Expect)
	}
	if ok {
		m.write(o.Key, o.Val, issue, acked)
	}
}

// add records an acked Add and checks the value it returned.
func (m *model) add(k, delta, newVal uint64) {
	m.acked[k].Add(delta)
	m.checkVal("add", k, newVal)
}

// transfer records an acked transfer batch (Key += Val, Key2 -= Val).
func (m *model) transfer(o *op) {
	m.acked[o.Key].Add(o.Val)
	m.acked[o.Key2].Add(-o.Val)
}

// scan checks one full snapshot scan: every key present, every value
// plausible, and the ledger's conserved total.
func (m *model) scan(pairs []kvPair, total uint64) {
	w := m.w
	if total != w.keys || uint64(len(pairs)) != w.keys {
		m.fail("scan: %d pairs of %d keys, want %d", len(pairs), total, w.keys)
		return
	}
	var sum uint64
	for _, p := range pairs {
		if p.Key >= w.keys {
			m.fail("scan: stray key %d", p.Key)
			continue
		}
		m.checkVal("scan", p.Key, p.Val)
		if w.isLedger(p.Key) {
			sum += p.Val
		}
	}
	if want := w.ledger * ledgerBase; sum != want {
		m.fail("scan: ledger total %d, want %d", sum, want)
	}
}

// expected returns the final value a ledger or counter key must hold.
func (m *model) expected(k uint64) uint64 {
	return m.w.preloadVal(k) + m.acked[k].Load()
}

// final checks the whole table after the run. table[k] is the value
// read back for key k; present[k] whether it was found.
func (m *model) final(table []uint64, present []bool) {
	w := m.w
	if uint64(len(table)) != w.keys {
		m.fail("final: %d keys read back, want %d", len(table), w.keys)
		return
	}
	m.mu.Lock()
	writes := append([]regWrite(nil), m.writes...)
	m.mu.Unlock()
	sort.Slice(writes, func(i, j int) bool { return writes[i].key < writes[j].key })
	for k := uint64(0); k < w.keys; k++ {
		if !present[k] {
			m.fail("final %d: key missing", k)
			continue
		}
		if m.unsure[k].Load() || w.isRegister(k) {
			continue
		}
		if want := m.expected(k); table[k] != want {
			m.fail("final %d: %d, want %d (lost or extra write)", k, table[k], want)
		}
	}
	// Registers: group the acked writes by key.
	i := 0
	for k := w.registerBase(); k < w.keys; k++ {
		j := i
		for j < len(writes) && writes[j].key == k {
			j++
		}
		if !m.unsure[k].Load() && present[k] {
			m.checkRegister(k, table[k], writes[i:j])
		}
		i = j
	}
}

// checkRegister applies the last-writer rule to one register.
func (m *model) checkRegister(k, v uint64, ws []regWrite) {
	if len(ws) == 0 {
		if v != tag(k) {
			m.fail("final %d: %#x, but no write was acked", k, v)
		}
		return
	}
	var last *regWrite
	for i := range ws {
		if ws[i].val == v {
			last = &ws[i]
		}
	}
	if last == nil {
		m.fail("final %d: %#x is no acked write's value (lost write)", k, v)
		return
	}
	for i := range ws {
		if ws[i].issue > last.acked {
			m.fail("final %d: write %#x began after %#x was acked, yet was lost", k, ws[i].val, v)
			return
		}
	}
}
