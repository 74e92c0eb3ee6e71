package main

import (
	"fmt"
	"time"

	"tinystm/internal/rng"
)

// surface is the path a workload's requests take into the system.
type surface int

const (
	surfProto  surface = iota // binary kvproto over pipelined kvclient connections
	surfHTTP                  // HTTP/JSON, one request per connection at a time
	surfInproc                // core.TM called in this process, no daemon
)

// kind is one generated operation type.
type kind uint8

const (
	kGet      kind = iota
	kPut           // register write: Val is a tagged value
	kCAS           // register compare-and-swap: Old -> Val, Expect says if it must succeed
	kAdd           // counter increment by Val
	kTransfer      // ledger: Key += Val, Key2 -= Val, one atomic batch
	kScan          // full snapshot scan
	kLookup        // stm-rbtree read-only lookup
	kToggle        // stm-rbtree: remove Key when present, insert it otherwise
	nKinds
)

var kindNames = [nKinds]string{"get", "put", "cas", "add", "batch", "scan", "lookup", "toggle"}

func (k kind) String() string { return kindNames[k] }

// op is one generated request. Fields not named by Kind are zero.
type op struct {
	Kind   kind
	Key    uint64
	Key2   uint64
	Val    uint64
	Old    uint64
	Expect bool
	// Owner is the worker that must run the op, or -1 for any. Register
	// writes on kv-http are owned so that a key's CAS expectations are
	// generated and executed in one order.
	Owner int
}

// workload is one traffic mix. The key space is laid out as
// [0, ledger) transfer accounts, [ledger, ledger+counters) Add targets,
// and the rest registers written by Put and CAS.
type workload struct {
	name, why string
	surface   surface
	keys      uint64
	ledger    uint64
	counters  uint64
	theta     float64
	// mix is the per-mille share of each kind; it sums to 1000.
	mix [nKinds]int
	// workers is the closed-loop in-flight depth and the open-loop
	// worker count; conns the connections they share.
	workers, conns int
	// ownRegisters routes register writes to a fixed worker (kv-http's
	// CAS model needs one writer per key).
	ownRegisters bool
	// latRate is the fixed offered rate (op/s) at which latency is
	// reported: about a sixth of capacity on a 2-core host. Nearer half
	// of capacity, p50 spread 35% across runs there (the generator and
	// the daemon then contend for the two cores); at a sixth, 5%.
	latRate float64
	// sloP99 is the latency limit of the slo_rate search.
	sloP99 time.Duration
	// daemonArgs configure stmkvd for this workload (durability and WAL
	// directory are added by the runner).
	daemonArgs []string
	durable    bool
	// sampleEvery keeps the latency sample and the spans of one closed-
	// loop request in sampleEvery, so they fit in memory at the
	// workload's rate.
	sampleEvery uint64
	// callLatency reports latency_p50_us per call in the closed loop
	// instead of at the fixed open-loop rate. On kv-write-durable the
	// fixed-rate p50 falls between the read and the durable-write modes
	// and tracked the host's steal time (85 us at 0.4% steal, 181 us at
	// 3.9%); on kv-http idle wakeups between requests made it spread 28%.
	callLatency bool
}

// Preloaded values. Registers hold tag(key) in the low 32 bits and a
// write generation in the high 32, so any read proves the value belongs
// to the key it was read from.
const (
	counterBase = 1000
	ledgerBase  = 1 << 40
)

func (w *workload) registerBase() uint64 { return w.ledger + w.counters }

func (w *workload) isRegister(k uint64) bool { return k >= w.registerBase() }
func (w *workload) isCounter(k uint64) bool  { return k >= w.ledger && k < w.registerBase() }
func (w *workload) isLedger(k uint64) bool   { return k < w.ledger }

// tag is a key's 32-bit register fingerprint.
func tag(k uint64) uint64 {
	z := k + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & 0xffffffff
}

// preloadVal is a key's value before any request runs.
func (w *workload) preloadVal(k uint64) uint64 {
	switch {
	case w.isLedger(k):
		return ledgerBase
	case w.isCounter(k):
		return counterBase
	default:
		return tag(k)
	}
}

// The four workloads. Why each exists is recorded beside it and in
// BENCHMARK.json.
var workloads = []*workload{
	{
		name:    "kv-read",
		why:     "request-path cost (codec, pipelined client, server dispatch) over 2^18 Zipf keys; the STM does little and the WAL nothing, so a wal, admission or cm change must not move it",
		surface: surfProto, keys: 1 << 18, theta: 0.99,
		mix:     [nKinds]int{kGet: 950, kPut: 50},
		workers: 32, conns: 2, sampleEvery: 1,
		latRate: 12000, sloP99: 20 * time.Millisecond,
		daemonArgs: []string{"-snapshots=true", "-autotune=false", "-geometry", "2^16,0,1"},
	},
	{
		name:    "kv-write-durable",
		why:     "durable writes beside reads and snapshot scans: group-commit waits, the admission gate, hot-key aborts and MVCC publish dominate; a codec-only change should move it little",
		surface: surfProto, keys: 4096, ledger: 1024, counters: 3072, theta: 0.99,
		mix:     [nKinds]int{kGet: 600, kAdd: 250, kTransfer: 140, kScan: 10},
		workers: 32, conns: 2, sampleEvery: 1, callLatency: true,
		latRate: 3000, sloP99: 50 * time.Millisecond,
		daemonArgs: []string{"-snapshots=true", "-autotune=false", "-geometry", "2^16,0,1",
			"-admission", "4", "-checkpoint-every", "0"},
		durable: true,
	},
	{
		name:    "kv-http",
		why:     "the HTTP/JSON half of kvserver (handlers, JSON, net/http) with 2 clients; without it that code goes unmeasured",
		surface: surfHTTP, keys: 2304, ledger: 256, counters: 1024, theta: 0.99,
		mix:     [nKinds]int{kGet: 450, kPut: 150, kCAS: 100, kAdd: 150, kTransfer: 130, kScan: 20},
		workers: 2, conns: 2, ownRegisters: true, sampleEvery: 1, callLatency: true,
		latRate: 2000, sloP99: 50 * time.Millisecond,
		daemonArgs: []string{"-snapshots=true", "-autotune=false", "-geometry", "2^16,0,1"},
	},
	{
		name:    "stm-rbtree",
		why:     "the paper's experiment in process: core, cm and tuning climbing from the bad geometry (2^8,0,1); no wire and no WAL, so a request-path change must show nothing",
		surface: surfInproc, keys: 1 << 17, theta: 0,
		mix:     [nKinds]int{kLookup: 800, kToggle: 200},
		workers: 2, sampleEvery: 64, callLatency: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// stream is one deterministic op generator: the same (seed, part,
// parts) gives the same sequence. A stream with parts > 1 writes only
// the registers of its own part (key % parts == part), so closed-loop
// workers never share a register.
type stream struct {
	w           *workload
	r           *rng.Rand
	part, parts int
	// cum is the cumulative mix; zipf draws ranks per key range.
	cum                     [nKinds]int
	zLedger, zCounter, zReg *rng.Zipf
	// regs is the generator's view of each register's current value,
	// shared by every stream of a run (parts own disjoint keys). It is
	// kept only for owned registers; puts counts this stream's writes
	// to unowned ones.
	regs []uint64
	puts uint64
}

// newRegs returns the register table at preload.
func (w *workload) newRegs() []uint64 {
	if !w.ownRegisters {
		return nil
	}
	regs := make([]uint64, w.keys-w.registerBase())
	for i := range regs {
		regs[i] = tag(w.registerBase() + uint64(i))
	}
	return regs
}

// zipfs caches the Zipf tables: building one costs O(n).
type zipfs struct{ ledger, counter, reg *rng.Zipf }

func (w *workload) newZipfs() zipfs {
	mk := func(n uint64) *rng.Zipf {
		if n == 0 {
			return nil
		}
		return rng.NewZipf(n, w.theta)
	}
	return zipfs{mk(w.ledger), mk(w.counters), mk(w.keys - w.registerBase())}
}

func (w *workload) newStream(seed uint64, part, parts int, z zipfs, regs []uint64) *stream {
	s := &stream{w: w, r: rng.NewThread(seed, part), part: part, parts: parts,
		zLedger: z.ledger, zCounter: z.counter, zReg: z.reg, regs: regs}
	acc := 0
	for k := range s.cum {
		acc += w.mix[k]
		s.cum[k] = acc
	}
	return s
}

// scatter spreads Zipf ranks over a range so the hot keys are not all
// adjacent (and not all in one store shard).
func scatter(rank, n uint64) uint64 {
	if n&(n-1) == 0 {
		return (rank * 0x9e3779b97f4a7c15) & (n - 1) // odd multiplier: a bijection mod 2^k
	}
	return rank
}

func (s *stream) pick(z *rng.Zipf, base, n uint64) uint64 {
	return base + scatter(z.Next(s.r), n)
}

// register draws a register owned by this stream's part.
func (s *stream) register() uint64 {
	w := s.w
	n := w.keys - w.registerBase()
	for {
		k := s.pick(s.zReg, w.registerBase(), n)
		if !s.w.ownRegisters || s.parts <= 1 || int(k%uint64(s.parts)) == s.part {
			return k
		}
	}
}

// next returns the stream's next op.
func (s *stream) next() op {
	w := s.w
	x := s.r.Intn(1000)
	k := kind(0)
	for x >= s.cum[k] {
		k++
	}
	o := op{Kind: k, Owner: -1}
	switch k {
	case kGet:
		switch c := s.r.Intn(int(w.keys)); {
		case uint64(c) < w.ledger:
			o.Key = s.pick(s.zLedger, 0, w.ledger)
		case uint64(c) < w.registerBase():
			o.Key = s.pick(s.zCounter, w.ledger, w.counters)
		default:
			o.Key = s.pick(s.zReg, w.registerBase(), w.keys-w.registerBase())
		}
	case kPut, kCAS:
		o.Key = s.register()
		o.Expect = true
		if !w.ownRegisters {
			// Unowned registers may be written concurrently, so the
			// generation only has to be unique: part and sequence.
			s.puts++
			o.Val = (uint64(s.part)<<24|s.puts&(1<<24-1))<<32 | tag(o.Key)
			break
		}
		o.Owner = int(o.Key % uint64(w.workers))
		i := o.Key - w.registerBase()
		cur := s.regs[i]
		o.Val = (cur>>32+1)<<32 | tag(o.Key)
		o.Old = cur
		if k == kCAS && s.r.Intn(4) == 0 {
			// A CAS against a value the key never held must fail.
			o.Old, o.Expect = cur^1<<63, false
		}
		if o.Expect {
			s.regs[i] = o.Val
		}
	case kAdd:
		o.Key = s.pick(s.zCounter, w.ledger, w.counters)
		o.Val = 1 + s.r.Uint64n(7)
	case kTransfer:
		o.Key = s.pick(s.zLedger, 0, w.ledger)
		for o.Key2 = o.Key; o.Key2 == o.Key; {
			o.Key2 = s.pick(s.zLedger, 0, w.ledger)
		}
		o.Val = 1 + s.r.Uint64n(100)
	case kLookup, kToggle:
		o.Key = 1 + s.r.Uint64n(w.keys)
	}
	return o
}
