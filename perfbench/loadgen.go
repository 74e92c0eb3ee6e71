package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"tinystm/internal/obs"
)

// execFn runs one op on worker w and reports the outcome to the model.
// id is the request id its spans share. A non-nil error means the op
// failed (its outcome is unknown or it was refused).
type execFn func(w int, o *op, id uint64) error

// engine drives a workload's executor closed loop or open loop.
type engine struct {
	w     *workload
	exec  execFn
	model *model // nil on stm-rbtree, which audits through its own
	epoch time.Time
	tr    *tracer // nil when untraced
	ids   atomic.Uint64

	attempted, failed atomic.Uint64
}

func (e *engine) now() int64 { return int64(time.Since(e.epoch)) }

// run executes one op, counting it and recording its root span.
func (e *engine) run(w int, o *op, due int64) (done int64, ok bool) {
	id := e.ids.Add(1)
	if e.model != nil {
		e.model.issue(o)
	}
	e.attempted.Add(1)
	err := e.exec(w, o, id)
	done = e.now()
	if err != nil {
		e.failed.Add(1)
		if e.model != nil {
			e.model.unknown(o)
		}
	}
	e.tr.add(w, span{Name: "loadgen.op", Start: due, End: done, ID: id, Req: id})
	return done, err == nil
}

// closedResult is one closed-loop phase.
type closedResult struct {
	// perWindow is the completed-op rate of each window; samples holds
	// each window's sampled call latencies in microseconds.
	perWindow []float64
	samples   [][]float64
}

// closed runs every worker back to back for d, split into windows.
func (e *engine) closed(streams []*stream, d time.Duration, windows int) closedResult {
	counts := make([]atomic.Uint64, windows)
	winNs := int64(d) / int64(windows)
	start := e.now()
	end := start + int64(d)
	per := make([][][]float64, len(streams)) // [worker][window]
	var wg sync.WaitGroup
	for w := range streams {
		per[w] = make([][]float64, windows)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := streams[w]
			for n := uint64(0); ; n++ {
				t := e.now()
				if t >= end {
					return
				}
				o := s.next()
				done, ok := e.run(w, &o, t)
				if !ok || done >= end {
					continue
				}
				i := (done - start) / winNs
				counts[i].Add(1)
				if n%e.w.sampleEvery == 0 {
					per[w][i] = append(per[w][i], float64(done-t)/1e3)
				}
			}
		}(w)
	}
	wg.Wait()
	res := closedResult{samples: mergeWindows(per, windows)}
	for i := range counts {
		res.perWindow = append(res.perWindow, float64(counts[i].Load())/(float64(winNs)/1e9))
	}
	return res
}

// mergeWindows joins per-worker window samples into one slice a window.
func mergeWindows(per [][][]float64, windows int) [][]float64 {
	out := make([][]float64, windows)
	for _, pw := range per {
		for i, xs := range pw {
			out[i] = append(out[i], xs...)
		}
	}
	return out
}

// openResult is one open-loop phase at a fixed offered rate.
type openResult struct {
	rate float64
	// samples[i] holds window i's latencies in microseconds, each timed
	// from the op's due time; all pools every latency.
	samples  [][]float64
	all      obs.Snapshot
	lag      obs.Snapshot
	sent     uint64
	failed   uint64
	backlog  int64 // the largest queue seen
	leftover int64 // queued when the schedule ended
	// overflow reports that a queue filled and the schedule was cut
	// short: the backlog was growing past any limit.
	overflow bool
}

type job struct {
	o   op
	due int64
}

// queueSeconds bounds the open-loop backlog: when a queue fills, the
// generator stops offering for the rest of the phase instead of
// letting the backlog grow without limit.
const queueSeconds = 0.5

// maxQueue caps each queue's length, and with it the memory the
// generator's queues take at the highest rates.
const maxQueue = 1 << 16

// openPhase is the state open's workers share.
type openPhase struct {
	e              *engine
	start, winNs   int64
	per            [][][]float64 // [worker][window] latency samples, us
	all, lag       *obs.Histogram
	queued, failed atomic.Int64
}

// open offers ops at rate for d on a fixed schedule. Each op is timed
// from its due time, so a stall delays every op queued behind it.
func (e *engine) open(s *stream, rate float64, d time.Duration, windows int) (openResult, error) {
	tm, err := newTimer()
	if err != nil {
		return openResult{}, err
	}
	defer tm.close()
	nw := e.w.workers
	qcap := min(int(rate*queueSeconds)+64, maxQueue)
	shared := make(chan job, qcap)
	own := make([]chan job, nw)
	for i := range own {
		if e.w.ownRegisters {
			own[i] = make(chan job, qcap)
		} else {
			own[i] = make(chan job) // never sent to
		}
	}
	p := &openPhase{e: e, start: e.now(), winNs: int64(d) / int64(windows),
		per: make([][][]float64, nw), all: obs.NewHistogram(), lag: obs.NewHistogram()}

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		p.per[w] = make([][]float64, windows)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine, sh := own[w], shared
			for mine != nil || sh != nil {
				select {
				case j, ok := <-mine:
					if !ok {
						mine = nil // a nil channel never fires in select
						continue
					}
					p.serve(w, j)
				case j, ok := <-sh:
					if !ok {
						sh = nil
						continue
					}
					p.serve(w, j)
				}
			}
		}(w)
	}

	res := openResult{rate: rate}
	for i := int64(0); ; i++ {
		due := p.start + int64(float64(i)*1e9/rate)
		if due >= p.start+int64(d) {
			break
		}
		if wait := due - e.now(); wait > 0 {
			if err = tm.sleep(time.Duration(wait)); err != nil {
				break
			}
		}
		o := s.next()
		q := shared
		if o.Owner >= 0 {
			q = own[o.Owner]
		}
		select {
		case q <- job{o, due}:
			res.sent++
			if n := p.queued.Add(1); n > res.backlog {
				res.backlog = n
			}
		default:
			res.overflow = true
		}
		if res.overflow {
			break
		}
	}
	res.leftover = p.queued.Load()
	for _, q := range own {
		close(q)
	}
	close(shared)
	wg.Wait()
	res.failed = uint64(p.failed.Load())
	res.samples = mergeWindows(p.per, windows)
	res.all, res.lag = p.all.Snapshot(), p.lag.Snapshot()
	return res, err
}

func (p *openPhase) serve(w int, j job) {
	p.queued.Add(-1)
	p.lag.Record(uint64(max(p.e.now()-j.due, 0)))
	done, ok := p.e.run(w, &j.o, j.due)
	if !ok {
		p.failed.Add(1)
		return
	}
	d := done - j.due
	p.all.Record(uint64(d))
	i := min((j.due-p.start)/p.winNs, int64(len(p.per[w])-1))
	p.per[w][i] = append(p.per[w][i], float64(d)/1e3)
}

// rounds alternates a closed-loop window and a fixed-rate open-loop
// window n times, so a slow spell of the host lands on both metrics
// alike and the medians over rounds shed it. It returns the closed-loop
// windows, one a round, and the open-loop windows of every round.
func (e *engine) rounds(streams []*stream, ol *stream, rate float64, n int, closedDur, openDur time.Duration) (cl closedResult, lat openResult, err error) {
	lat.rate = rate
	var all, lag obs.Snapshot
	for i := 0; i < n; i++ {
		if closedDur > 0 {
			c := e.closed(streams, closedDur, 1)
			cl.perWindow = append(cl.perWindow, c.perWindow...)
			cl.samples = append(cl.samples, c.samples...)
		}
		o, err := e.open(ol, rate, openDur, latWindows(rate, openDur))
		if err != nil {
			return cl, lat, err
		}
		lat.samples = append(lat.samples, o.samples...)
		all.Merge(&o.all)
		lag.Merge(&o.lag)
		lat.sent += o.sent
		lat.failed += o.failed
		lat.overflow = lat.overflow || o.overflow
		lat.backlog = max(lat.backlog, o.backlog)
	}
	lat.all, lat.lag = all, lag
	return cl, lat, nil
}

// timer sleeps on a Linux timerfd parked in the runtime's netpoller.
// The runtime's own timers wake a sub-millisecond sleep up to a
// millisecond late, and a blocking nanosleep would hold the benchmark's
// only P; either would make the generator, not the system, set the
// open-loop latency.
type timer struct {
	f  *os.File
	fd uintptr
}

func newTimer() (*timer, error) {
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", e)
	}
	return &timer{f: os.NewFile(fd, "timerfd"), fd: fd}, nil
}

const clockMonotonic = 1

// sleep arms the timer for d and waits for it to fire.
func (t *timer) sleep(d time.Duration) error {
	spec := [2]syscall.Timespec{{}, syscall.NsecToTimespec(int64(d))} // interval, value
	if _, _, e := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); e != 0 {
		return fmt.Errorf("timerfd_settime: %w", e)
	}
	var expirations [8]byte
	_, err := t.f.Read(expirations[:])
	return err
}

func (t *timer) close() { t.f.Close() }

// latWindows splits an open-loop phase into windows of at least 0.1 s
// and 1000 ops, so each window's p99 has ten samples beyond it.
func latWindows(rate float64, d time.Duration) int {
	w := max(0.1, 1000/rate)
	return max(1, int(d.Seconds()/w))
}

// windowQuantile is the over-quantile, across windows, of each
// window's q-quantile of its samples. On a shared 2-core host,
// millisecond stalls of the host (scheduler slices, collections in
// either process) land in a quarter to over half of a run's 0.1 s
// windows, and how many varies from run to run: both a pooled p99 and
// the median window's p99 moved several-fold between runs. The p99 of
// the quieter windows (over = 0.25) is the request path's own tail.
func windowQuantile(ws [][]float64, q, over float64) float64 {
	var xs []float64
	for _, w := range ws {
		if len(w) > 0 {
			xs = append(xs, quantile(w, q))
		}
	}
	return quantile(xs, over)
}

// sloSearch finds the highest offered rate whose p99 meets the limit
// with no growing backlog. The search is fixed: a ladder of `steps`
// rates from half to 1.2 times the closed-loop throughput, each offered
// for stepDur. A rung passes when the median of its 0.1 s windows' p99
// meets the limit, nothing failed and under 10 ms of work was left
// queued; past capacity the backlog grows and every later window
// misses. The answer is the highest rung that passed, so a rung spoiled
// by a stall of the host below it does not cap the result.
func (e *engine) sloSearch(s *stream, tput float64, steps int, stepDur time.Duration) (best float64, trials []openResult, err error) {
	limit := float64(e.w.sloP99) / 1e3
	for i := 0; i < steps; i++ {
		r := tput * (0.5 + 0.7*float64(i)/float64(steps-1))
		res, err := e.open(s, r, stepDur, latWindows(r, stepDur))
		if err != nil {
			return 0, trials, err
		}
		trials = append(trials, res)
		if res.failed == 0 && !res.overflow && windowQuantile(res.samples, 0.99, 0.5) <= limit &&
			float64(res.leftover) <= r*0.01 {
			best = r
		}
	}
	return best, trials, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
