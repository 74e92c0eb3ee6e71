package kvserver

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"tinystm/internal/kvproto"
	"tinystm/internal/wal"
)

// durableCfg is the shared base config for durability tests: small arena,
// group acks, in-memory filesystem so "restart" and "crash" are cheap.
func durableCfg(fs *wal.MemFS) Config {
	return Config{
		SpaceWords: 1 << 18, Shards: 4, Buckets: 8,
		Snapshots:  true,
		Durability: DurabilityGroup,
		WALDir:     "wal",
		WALFS:      fs,
	}
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	if err := s.RecoveryWait(); err != nil {
		t.Fatalf("RecoveryWait: %v", err)
	}
}

// TestRestartRecoversAckedWrites is the headline property over the HTTP
// surface: everything a durable server acked is served again by the next
// incarnation booted from the same (crashed) filesystem.
func TestRestartRecoversAckedWrites(t *testing.T) {
	fs := wal.NewMemFS()

	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	c := ts1.Client()
	for k := 0; k < 50; k++ {
		if code := doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts1.URL, k), fmt.Sprint(k*10), nil); code != 200 {
			t.Fatalf("PUT %d: status %d", k, code)
		}
	}
	if code := doJSON(t, c, "DELETE", ts1.URL+"/kv/7", "", nil); code != 200 {
		t.Fatal("DELETE failed")
	}
	ts1.Close()
	s1.Close()

	// Kill -9: every unsynced byte vanishes. Acked responses must not.
	fs.Crash(0)

	s2, ts2 := newTestServer(t, durableCfg(fs))
	waitReady(t, s2)
	c2 := ts2.Client()
	for k := 0; k < 50; k++ {
		var got struct{ Val uint64 }
		code := doJSON(t, c2, "GET", fmt.Sprintf("%s/kv/%d", ts2.URL, k), "", &got)
		if k == 7 {
			if code != http.StatusNotFound {
				t.Fatalf("deleted key 7 came back: status %d", code)
			}
			continue
		}
		if code != 200 || got.Val != uint64(k*10) {
			t.Fatalf("GET %d after restart: status %d val %d", k, code, got.Val)
		}
	}

	// /stats must tell the recovery story.
	var st struct {
		Durability struct {
			Mode     string `json:"mode"`
			State    string `json:"state"`
			Recovery struct {
				Records uint64 `json:"records"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	if code := doJSON(t, c2, "GET", ts2.URL+"/stats", "", &st); code != 200 {
		t.Fatalf("/stats: %d", code)
	}
	if st.Durability.Mode != DurabilityGroup || st.Durability.State != "ready" {
		t.Fatalf("durability stats = %+v", st.Durability)
	}
	if st.Durability.Recovery.Records == 0 {
		t.Fatal("recovery replayed zero records")
	}
}

// TestReadinessDuringRecovery pins the liveness/readiness split: while the
// WAL replays, /healthz says the process is alive, /readyz and data
// endpoints say come back later (503 + Retry-After), and /stats answers so
// an operator can watch.
func TestReadinessDuringRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	gate := make(chan struct{})
	cfg := durableCfg(fs)
	cfg.recoveryGate = gate

	s, ts := newTestServer(t, cfg)
	c := ts.Client()

	if code := doJSON(t, c, "GET", ts.URL+"/healthz", "", nil); code != 200 {
		t.Fatalf("/healthz during recovery: %d", code)
	}
	resp, err := c.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during recovery: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 without Retry-After")
	}
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "1", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT during recovery: %d, want 503", code)
	}
	if code := doJSON(t, c, "GET", ts.URL+"/stats", "", nil); code != 200 {
		t.Fatalf("/stats during recovery: %d", code)
	}

	close(gate)
	waitReady(t, s)
	if code := doJSON(t, c, "GET", ts.URL+"/readyz", "", nil); code != 200 {
		t.Fatalf("/readyz after recovery: %d", code)
	}
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "1", nil); code != 200 {
		t.Fatalf("PUT after recovery: %d", code)
	}
}

// TestFsyncFailureDegradesToReadOnly: a log that can no longer promise
// durability must stop acking writes — stickily — while committed memory
// keeps serving reads.
func TestFsyncFailureDegradesToReadOnly(t *testing.T) {
	fs := wal.NewMemFS()
	s, ts := newTestServer(t, durableCfg(fs))
	waitReady(t, s)
	c := ts.Client()

	if code := doJSON(t, c, "PUT", ts.URL+"/kv/1", "11", nil); code != 200 {
		t.Fatalf("PUT before failure: %d", code)
	}

	fs.FailSyncAt(1) // next fsync errors, and the log failure is sticky
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/2", "22", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT with broken fsync: %d, want 503", code)
	}
	if st := s.State(); st != "degraded" {
		t.Fatalf("state = %q, want degraded", st)
	}
	// Sticky: later writes stay refused even though the injected failure
	// counter has passed.
	if code := doJSON(t, c, "PUT", ts.URL+"/kv/3", "33", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT after degrade: %d, want 503", code)
	}
	// Reads of committed state keep working.
	var got struct{ Val uint64 }
	if code := doJSON(t, c, "GET", ts.URL+"/kv/1", "", &got); code != 200 || got.Val != 11 {
		t.Fatalf("GET while degraded: status %d val %d", code, got.Val)
	}
	resp, err := c.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded: %d, want 503", resp.StatusCode)
	}
	var st struct {
		Durability struct {
			DegradedError string `json:"degraded_error"`
		} `json:"durability"`
	}
	doJSON(t, c, "GET", ts.URL+"/stats", "", &st)
	if st.Durability.DegradedError == "" {
		t.Fatal("/stats does not surface the degraded cause")
	}
}

// TestRecoveryCorruptionFailsLoudly: mid-log damage must park the server
// in stateFailed with the cause visible, never serve partial state.
func TestRecoveryCorruptionFailsLoudly(t *testing.T) {
	fs := wal.NewMemFS()

	// First incarnation writes real data.
	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	if code := doJSON(t, ts1.Client(), "PUT", ts1.URL+"/kv/1", "1", nil); code != 200 {
		t.Fatal("seed PUT failed")
	}
	ts1.Close()
	s1.Close()

	// Vandalize a segment header: fully-present bad bytes are corruption,
	// not a torn tail.
	names, err := fs.ReadDir("wal")
	if err != nil {
		t.Fatal(err)
	}
	seg := ""
	for _, n := range names {
		if len(n) > 4 && n[:4] == "wal-" {
			seg = n
			break
		}
	}
	if seg == "" {
		t.Fatal("no segment on disk")
	}
	data, _ := fs.ReadFile("wal/" + seg)
	data[0] ^= 0xFF
	f, _ := fs.Create("wal/" + seg)
	f.Write(data)
	f.Sync()
	f.Close()

	s2, err := New(durableCfg(fs))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.RecoveryWait(); err == nil {
		t.Fatal("recovery over corrupt log succeeded")
	}
	if st := s2.State(); st != "failed" {
		t.Fatalf("state = %q, want failed", st)
	}
}

// TestCheckpointTruncatesAndRestartUsesIt exercises the server-level
// checkpoint protocol end to end: Checkpoint() writes a snapshot, drops
// the sealed segments, and the NEXT boot recovers from the checkpoint.
func TestCheckpointTruncatesAndRestartUsesIt(t *testing.T) {
	fs := wal.NewMemFS()
	s1, ts1 := newTestServer(t, durableCfg(fs))
	waitReady(t, s1)
	c := ts1.Client()
	for k := 0; k < 20; k++ {
		if code := doJSON(t, c, "PUT", fmt.Sprintf("%s/kv/%d", ts1.URL, k), fmt.Sprint(k+1), nil); code != 200 {
			t.Fatalf("PUT %d failed", k)
		}
	}
	if err := s1.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// More writes after the checkpoint land in the surviving log suffix.
	if code := doJSON(t, c, "PUT", ts1.URL+"/kv/100", "1000", nil); code != 200 {
		t.Fatal("post-checkpoint PUT failed")
	}
	ts1.Close()
	s1.Close()
	fs.Crash(0)

	s2, ts2 := newTestServer(t, durableCfg(fs))
	waitReady(t, s2)
	var st struct {
		Durability struct {
			Recovery struct {
				CheckpointFound bool   `json:"checkpoint_found"`
				CheckpointPairs uint64 `json:"checkpoint_pairs"`
			} `json:"recovery"`
		} `json:"durability"`
	}
	c2 := ts2.Client()
	if code := doJSON(t, c2, "GET", ts2.URL+"/stats", "", &st); code != 200 {
		t.Fatal("/stats failed")
	}
	if !st.Durability.Recovery.CheckpointFound || st.Durability.Recovery.CheckpointPairs == 0 {
		t.Fatalf("restart did not recover from the checkpoint: %+v", st.Durability.Recovery)
	}
	var got struct{ Val uint64 }
	if code := doJSON(t, c2, "GET", ts2.URL+"/kv/5", "", &got); code != 200 || got.Val != 6 {
		t.Fatalf("checkpointed key: status %d val %d", code, got.Val)
	}
	if code := doJSON(t, c2, "GET", ts2.URL+"/kv/100", "", &got); code != 200 || got.Val != 1000 {
		t.Fatalf("post-checkpoint key: status %d val %d", code, got.Val)
	}
}

// holdFS is a MemFS whose file syncs block while held: the write-ahead
// log's flush stalls and every durability wait with it.
type holdFS struct {
	*wal.MemFS
	held    atomic.Bool
	release chan struct{}
}

func (h *holdFS) Create(p string) (wal.File, error) {
	f, err := h.MemFS.Create(p)
	if err != nil {
		return nil, err
	}
	return holdFile{File: f, fs: h}, nil
}

type holdFile struct {
	wal.File
	fs *holdFS
}

func (f holdFile) Sync() error {
	if f.fs.held.Load() {
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestAdmissionSlotReleasedAtCommit runs two updates through a width-1
// admission gate while the log's flush is held. The first commits and
// waits for durability; the gate must already be free then, so the
// second commits too, while the first still waits.
func TestAdmissionSlotReleasedAtCommit(t *testing.T) {
	fs := &holdFS{MemFS: wal.NewMemFS(), release: make(chan struct{})}
	cfg := durableCfg(fs.MemFS)
	cfg.WALFS = fs
	cfg.AdmissionWidth = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	waitReady(t, s)
	fs.held.Store(true)
	released := false
	defer func() {
		if !released {
			close(fs.release)
		}
	}()

	put := func(key uint64) chan cause {
		done := make(chan cause, 1)
		go func() {
			_, c := s.exec(&kvproto.Request{Op: kvproto.OpPut, Key: key, Val: key}, time.Time{}, surfProto)
			done <- c
		}()
		return done
	}
	// committed polls until key's update is visible in the store.
	committed := func(key uint64) {
		t.Helper()
		for start := time.Now(); ; time.Sleep(time.Millisecond) {
			if _, found := s.store.Get(key); found {
				return
			}
			if time.Since(start) > 10*time.Second {
				t.Fatalf("update of key %d never committed", key)
			}
		}
	}
	first := put(1)
	committed(1)
	second := put(2)
	committed(2)
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		if _, inflight, _, _ := s.gate.Stats(); inflight == 0 {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("the gate still counts an update in flight")
		}
	}
	select {
	case c := <-first:
		t.Fatalf("first update returned (cause %d) with the log flush held", c)
	default:
	}
	released = true
	close(fs.release)
	for i, done := range []chan cause{first, second} {
		if c := <-done; c != causeOK {
			t.Errorf("update %d finished with cause %d, want OK", i+1, c)
		}
	}
}
