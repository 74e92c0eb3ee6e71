// The server half of the resilience stack: end-to-end deadline
// enforcement and brownout load shedding, which exec applies to both
// request surfaces.
//
// Deadlines travel as RELATIVE budgets (the X-Timeout-Ms header on HTTP,
// the flagged TimeoutMs field on the wire protocol) and are re-anchored
// to an absolute deadline the moment the server reads the request —
// clock-skew immune by construction. From there the budget is checked at
// every stage where the request can grow stale while costing nothing:
// before execution (proto dequeue — the op sat in the connection's
// pipeline), at the admission gate (EnterUntil sheds instead of queueing
// a corpse), and before long operations start. A shed is answered 504 on
// HTTP and StatusDeadlineExceeded on the wire, and counted per
// surface+stage so /metrics can prove WHERE requests die under overload.
//
// The brownout ladder (resilience.Brownout, stepped by the tuning
// runtime from the request-latency histogram's per-period p99) sheds
// whole request classes in cost order — scans first, then writes, reads
// last — at the door, before any transaction or gate wait. Shed
// responses are 503 + Retry-After, the same shape as the lifecycle
// gate's refusals, so clients' existing retry classification applies.
package kvserver

import (
	"sync/atomic"
	"time"

	"tinystm/internal/resilience"
)

// Deadline-shed stages: where a request's budget ran out.
const (
	// shedStageDequeue: expired between arrival and execution (the proto
	// pipeline queue; HTTP has no equivalent queue the server can see).
	shedStageDequeue = iota
	// shedStageGate: expired waiting at (or arriving expired to) the
	// update-admission gate.
	shedStageGate
	// shedStageOp: expired immediately before a long operation (scan,
	// batch) would have started.
	shedStageOp
	nShedStages
)

var shedStageNames = [nShedStages]string{"dequeue", "gate", "op"}

// shedStats counts deadline and brownout sheds for /metrics and /stats.
type shedStats struct {
	//stm:allow-atomic request accounting outside any transaction
	deadline [nSurfaces][nShedStages]atomic.Uint64
	//stm:allow-atomic request accounting outside any transaction
	brownout [resilience.NumClasses]atomic.Uint64
}

// expired reports whether a non-zero deadline has passed.
func expired(dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl)
}

// shedDeadline counts one deadline shed on surface surf at stage and
// returns the refusal message: the client's budget is spent, so the
// answer documents that the server refused the work rather than timing
// out silently.
func (s *Server) shedDeadline(surf, stage int) string {
	s.shed.deadline[surf][stage].Add(1)
	return "deadline exceeded before execution (" + shedStageNames[stage] + ")"
}

// enterUpdateUntil claims an update-admission slot under the request's
// deadline, or reports that the budget ran out first (the caller then
// sheds). A zero deadline never sheds; a nil gate admits freely.
func (s *Server) enterUpdateUntil(dl time.Time) (release func(), ok bool) {
	if s.gate == nil {
		if expired(dl) {
			return nil, false
		}
		return func() {}, true
	}
	t0 := time.Now()
	if !s.gate.EnterUntil(dl) {
		return nil, false
	}
	s.met.admWaitNs.Record(uint64(time.Since(t0)))
	return s.gate.Exit, true
}

// brownSheds reports whether the current brownout level sheds class c,
// counting the shed when it does.
func (s *Server) brownSheds(c resilience.Class) bool {
	if s.brown == nil || !s.brown.Sheds(c) {
		return false
	}
	s.shed.brownout[c].Add(1)
	return true
}

// brownoutMsg is the shed response body/message; it names the class so
// a client log line is actionable without scraping /stats.
func brownoutMsg(c resilience.Class) string {
	return "brownout: shedding " + c.String() + " requests (p99 over SLO); retry later"
}

// deadlineShedStats renders the per-surface/stage shed counters.
func (s *Server) deadlineShedStats() map[string]any {
	out := make(map[string]any, nSurfaces)
	for surf := 0; surf < nSurfaces; surf++ {
		stages := make(map[string]uint64, nShedStages)
		for st := 0; st < nShedStages; st++ {
			stages[shedStageNames[st]] = s.shed.deadline[surf][st].Load()
		}
		out[surfaceNames[surf]] = stages
	}
	return out
}

// brownoutLevelName is the live level for /tuning ("off" without a
// ladder: the server is never shedding).
func (s *Server) brownoutLevelName() string {
	if s.brown == nil {
		return resilience.LevelOff.String()
	}
	return s.brown.Level().String()
}

// brownoutStats renders the ladder for /stats.
func (s *Server) brownoutStats() map[string]any {
	if s.brown == nil {
		return map[string]any{"enabled": false}
	}
	esc, deesc := s.brown.Moves()
	shed := make(map[string]uint64, resilience.NumClasses)
	for c := 0; c < resilience.NumClasses; c++ {
		shed[resilience.Class(c).String()] = s.shed.brownout[c].Load()
	}
	return map[string]any{
		"enabled":       true,
		"slo_ms":        s.brown.SLO().Milliseconds(),
		"level":         s.brown.Level().String(),
		"escalations":   esc,
		"deescalations": deesc,
		"shed":          shed,
	}
}
