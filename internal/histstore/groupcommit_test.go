package histstore

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"sync"
	"testing"

	"repro/internal/core"
)

// gcObs is a deterministic observation keyed by (writer, index): every
// float is exactly representable, so recovered state can be compared
// for byte-identical equality, not approximate closeness.
func gcObs(writer, i int) core.Observation {
	return core.Observation{
		X:     []float64{float64(writer), float64(i)},
		Costs: []float64{float64(writer) + 0.5, float64(i)*2 + 0.25},
	}
}

// durableSpellings are the two ways to ask for a durable log. They are
// one mechanism (Options.GroupCommit is a synonym kept for bench/), and
// every test of it runs under both.
var durableSpellings = map[string]Options{"Fsync": {Fsync: true}, "GroupCommit": {GroupCommit: true}}

// eachDurable runs test once per spelling, as a subtest.
func eachDurable(t *testing.T, test func(t *testing.T, opts Options)) {
	for name, opts := range durableSpellings {
		t.Run(name, func(t *testing.T) { test(t, opts) })
	}
}

func gcOpen(t testing.TB, dir string, opts Options) (*Store, *core.History) {
	t.Helper()
	st, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.OpenHistory("q", 2, []string{"time_s", "money_usd"})
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	return st, h
}

// TestGroupCommitRecoveryEquivalence drives an identical append (and
// mid-stream Sync) sequence through a durable store and a control that
// never waits for an fsync, and asserts both recover byte-identical
// state: durability changes when fsyncs happen, never what is
// recovered.
func TestGroupCommitRecoveryEquivalence(t *testing.T) {
	eachDurable(t, testRecoveryEquivalence)
}

func testRecoveryEquivalence(t *testing.T, opts Options) {
	dirGC, dirCtl := t.TempDir(), t.TempDir()
	stGC, hGC := gcOpen(t, dirGC, opts)
	stCtl, hCtl := gcOpen(t, dirCtl, Options{})
	const n = 120
	for i := 0; i < n; i++ {
		o := gcObs(0, i)
		if err := hGC.Append(o); err != nil {
			t.Fatalf("durable append %d: %v", i, err)
		}
		if err := hCtl.Append(o); err != nil {
			t.Fatalf("control append %d: %v", i, err)
		}
		if i == n/2 {
			if err := stGC.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := stCtl.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stGC.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stCtl.Close(); err != nil {
		t.Fatal(err)
	}

	stGC2, hGC2 := gcOpen(t, dirGC, Options{})
	defer stGC2.Close()
	stCtl2, hCtl2 := gcOpen(t, dirCtl, Options{})
	defer stCtl2.Close()
	if hGC2.Len() != n || hCtl2.Len() != n {
		t.Fatalf("recovered %d (durable) and %d (control), want %d", hGC2.Len(), hCtl2.Len(), n)
	}
	for i := 0; i < n; i++ {
		a, b := hGC2.At(i), hCtl2.At(i)
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("observation %d feature %d: durable %v, control %v", i, j, a.X[j], b.X[j])
			}
		}
		for j := range a.Costs {
			if a.Costs[j] != b.Costs[j] {
				t.Fatalf("observation %d cost %d: durable %v, control %v", i, j, a.Costs[j], b.Costs[j])
			}
		}
	}
}

// TestGroupCommitConcurrentAppends hammers one shard from many
// goroutines (run with -race to check the leader/follower
// synchronization) and then asserts every acknowledged append survives
// a close + recovery, with per-writer order preserved.
func TestGroupCommitConcurrentAppends(t *testing.T) {
	eachDurable(t, testConcurrentAppends)
}

func testConcurrentAppends(t *testing.T, opts Options) {
	dir := t.TempDir()
	st, h := gcOpen(t, dir, opts)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := h.Append(gcObs(w, i)); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, h2 := gcOpen(t, dir, Options{})
	defer st2.Close()
	if h2.Len() != writers*perWriter {
		t.Fatalf("recovered %d observations, want %d", h2.Len(), writers*perWriter)
	}
	// Each writer appended sequentially, so its observations must
	// appear in index order within the recovered log.
	next := make([]int, writers)
	for i := 0; i < h2.Len(); i++ {
		o := h2.At(i)
		w, idx := int(o.X[0]), int(o.X[1])
		if w < 0 || w >= writers {
			t.Fatalf("observation %d has unknown writer %d", i, w)
		}
		if idx != next[w] {
			t.Fatalf("writer %d observation out of order: got index %d, want %d", w, idx, next[w])
		}
		next[w]++
		want := gcObs(w, idx)
		if o.Costs[0] != want.Costs[0] || o.Costs[1] != want.Costs[1] {
			t.Fatalf("observation %d corrupted: %v, want %v", i, o.Costs, want.Costs)
		}
	}
}

// TestGroupCommitCloseFailsLateAppends verifies the shutdown contract:
// appends completed before Close stay durable, appends after Close fail
// instead of being silently dropped.
func TestGroupCommitCloseFailsLateAppends(t *testing.T) {
	eachDurable(t, testCloseFailsLateAppends)
}

func testCloseFailsLateAppends(t *testing.T, opts Options) {
	dir := t.TempDir()
	st, h := gcOpen(t, dir, opts)
	for i := 0; i < 10; i++ {
		if err := h.Append(gcObs(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.Append(gcObs(0, 10)); err == nil {
		t.Fatal("append after Close succeeded; want an error")
	}
	if h.Len() != 10 {
		t.Fatalf("failed append mutated memory: len %d, want 10", h.Len())
	}
}

// ---------------------------------------------------------------------------
// SIGKILL crash test: a child process appends to a durable log and
// reports each acknowledged write on stdout; the parent kills it
// mid-stream (no cleanup, no final fsync) and asserts that recovery
// holds every acknowledged write, in per-writer order, byte-identical
// to what was appended.

const (
	crashDirEnv      = "HISTSTORE_CRASH_DIR"
	crashSpellingEnv = "HISTSTORE_CRASH_SPELLING" // a durableSpellings key
)

// TestGroupCommitCrashChild is the re-exec helper body, not a test: it
// only runs when the parent set crashDirEnv, and then appends until
// killed.
func TestGroupCommitCrashChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-child helper; driven by TestGroupCommitCrashRecovery")
	}
	st, h := gcOpen(t, dir, durableSpellings[os.Getenv(crashSpellingEnv)])
	defer st.Close()
	var mu sync.Mutex
	out := bufio.NewWriter(os.Stdout)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if err := h.Append(gcObs(w, i)); err != nil {
					return
				}
				// The ack line leaves the process before the next append:
				// anything the parent reads was durably acknowledged.
				mu.Lock()
				fmt.Fprintf(out, "acked %d %d\n", w, i)
				out.Flush()
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
}

func TestGroupCommitCrashRecovery(t *testing.T) {
	for spelling := range durableSpellings {
		t.Run(spelling, func(t *testing.T) { testCrashRecovery(t, spelling) })
	}
}

func testCrashRecovery(t *testing.T, spelling string) {
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestGroupCommitCrashChild$")
	cmd.Env = append(os.Environ(), crashDirEnv+"="+dir, crashSpellingEnv+"="+spelling)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Collect acknowledged writes until enough fsyncs happened,
	// then SIGKILL mid-stream.
	acked := make(map[[2]int]bool)
	sc := bufio.NewScanner(stdout)
	for len(acked) < 400 && sc.Scan() {
		var w, i int
		if _, err := fmt.Sscanf(sc.Text(), "acked %d %d", &w, &i); err == nil {
			acked[[2]int{w, i}] = true
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()
	if len(acked) < 400 {
		t.Fatalf("child exited after only %d acks", len(acked))
	}

	st, h := gcOpen(t, dir, Options{})
	defer st.Close()
	// Every recovered observation is byte-identical to what its writer
	// appended, and per-writer order is intact (torn-tail truncation may
	// only drop unacknowledged suffixes).
	seen := make(map[[2]int]bool, h.Len())
	next := make(map[int]int)
	for i := 0; i < h.Len(); i++ {
		o := h.At(i)
		w, idx := int(o.X[0]), int(o.X[1])
		want := gcObs(w, idx)
		if o.X[0] != want.X[0] || o.X[1] != want.X[1] ||
			o.Costs[0] != want.Costs[0] || o.Costs[1] != want.Costs[1] {
			t.Fatalf("recovered observation %d corrupted: X=%v Costs=%v", i, o.X, o.Costs)
		}
		if idx != next[w] {
			t.Fatalf("writer %d out of order after recovery: got %d, want %d", w, idx, next[w])
		}
		next[w]++
		seen[[2]int{w, idx}] = true
	}
	lost := 0
	for k := range acked {
		if !seen[k] {
			lost++
			t.Errorf("acknowledged write lost: writer %d index %d", k[0], k[1])
		}
	}
	if lost == 0 {
		t.Logf("SIGKILL after %d acks: recovered %d observations, no acknowledged write lost", len(acked), h.Len())
	}
}
