package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectShip is a ShipFunc capturing delivered frames in order.
type collectShip struct {
	mu     sync.Mutex
	frames []byte
	next   uint64
	calls  int
	fail   error
}

func (c *collectShip) ship(shard string, from uint64, frames []byte, count int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.fail != nil {
		return c.fail
	}
	if from != c.next {
		return errors.New("ship out of order")
	}
	c.frames = append(c.frames, frames...)
	c.next = from + uint64(count)
	return nil
}

// arm takes shard to streaming the only way production does: Hold at the
// cut, Release once the standby has it.
func arm(r *Replicator, shard string, next uint64) {
	r.Hold(shard, next)
	r.Release(shard)
}

func TestReplicatorShipsInOrderAndWaits(t *testing.T) {
	c := &collectShip{}
	r := NewReplicator(c.ship)
	arm(r, "Q12", 0)
	var want []byte
	for seq := uint64(0); seq < 50; seq++ {
		frame := []byte{byte(seq), byte(seq >> 8), 0xab}
		want = append(want, frame...)
		r.AppendFrame("Q12", seq, frame)
	}
	for seq := uint64(0); seq < 50; seq++ {
		if err := r.WaitFrame("Q12", seq); err != nil {
			t.Fatalf("WaitFrame(%d): %v", seq, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(c.frames) != string(want) {
		t.Fatalf("shipped bytes differ: got %d bytes, want %d", len(c.frames), len(want))
	}
	if c.next != 50 {
		t.Fatalf("standby at seq %d, want 50", c.next)
	}
}

func TestReplicatorDisarmedDropsEverything(t *testing.T) {
	c := &collectShip{}
	r := NewReplicator(c.ship)
	r.AppendFrame("Q12", 0, []byte{1})
	if err := r.WaitFrame("Q12", 0); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls != 0 {
		t.Fatalf("disarmed shard shipped %d times", c.calls)
	}
}

func TestReplicatorDegradeOnShipFailure(t *testing.T) {
	c := &collectShip{fail: errors.New("standby down")}
	r := NewReplicator(c.ship)
	degraded := make(chan string, 1)
	r.OnDegrade = func(shard string, err error) { degraded <- shard }
	arm(r, "Q12", 0)
	r.AppendFrame("Q12", 0, []byte{1})
	// The frame ships when somebody waits for it: the waiter's own ship
	// fails, it degrades the shard and is released, not failed.
	if err := r.WaitFrame("Q12", 0); err != nil {
		t.Fatalf("WaitFrame over a failed ship: %v", err)
	}
	select {
	case sh := <-degraded:
		if sh != "Q12" {
			t.Fatalf("degraded shard %q", sh)
		}
	default:
		t.Fatal("OnDegrade had not fired when the waiter returned")
	}
	if !r.Degraded("Q12") {
		t.Fatal("shard not marked degraded")
	}
	// Waits no longer block, appends no longer ship.
	if err := r.WaitFrame("Q12", 99); err != nil {
		t.Fatalf("degraded WaitFrame: %v", err)
	}
	r.AppendFrame("Q12", 1, []byte{2})
	// Re-arming after a fresh full sync resumes streaming.
	c.mu.Lock()
	c.fail = nil
	c.next = 10
	c.mu.Unlock()
	arm(r, "Q12", 10)
	r.AppendFrame("Q12", 10, []byte{3})
	if err := r.WaitFrame("Q12", 10); err != nil {
		t.Fatal(err)
	}
	if !r.Streaming("Q12") {
		t.Fatal("re-armed shard not streaming")
	}
}

func TestReplicatorDegradeOnSequenceGap(t *testing.T) {
	c := &collectShip{}
	r := NewReplicator(c.ship)
	arm(r, "Q12", 0)
	r.AppendFrame("Q12", 0, []byte{1})
	if err := r.WaitFrame("Q12", 0); err != nil {
		t.Fatal(err)
	}
	// Skip seq 1: the mirror can no longer promise a contiguous suffix.
	r.AppendFrame("Q12", 2, []byte{3})
	if !r.Degraded("Q12") {
		t.Fatal("sequence gap did not degrade the stream")
	}
}

func TestReplicatorHoldBuffersUntilRelease(t *testing.T) {
	c := &collectShip{next: 5}
	r := NewReplicator(c.ship)
	r.Hold("Q12", 5)
	r.AppendFrame("Q12", 5, []byte{1})
	r.AppendFrame("Q12", 6, []byte{2})
	// Nothing ships while held, but acks are NOT blocked: until the
	// full sync completes the shard is in its local-durability window,
	// so a hung standby must not stall the write path.
	waited := make(chan struct{})
	go func() {
		_ = r.WaitFrame("Q12", 5)
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFrame blocked on a held shard")
	}
	time.Sleep(10 * time.Millisecond)
	c.mu.Lock()
	if c.calls != 0 {
		t.Fatalf("held shard shipped %d times", c.calls)
	}
	c.mu.Unlock()
	r.Release("Q12")
	// Once streaming, acks wait for shipment again.
	if err := r.WaitFrame("Q12", 6); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(c.frames) != string([]byte{1, 2}) || c.next != 7 {
		t.Fatalf("after release: frames=%v next=%d", c.frames, c.next)
	}
}

func TestReplicatorHeldBufferOverflowDegrades(t *testing.T) {
	c := &collectShip{}
	r := NewReplicator(c.ship)
	var degraded atomic.Bool
	r.OnDegrade = func(string, error) { degraded.Store(true) }
	r.Hold("Q12", 0)
	// A standby hung mid-sync cannot buffer frames forever: past the
	// cap the stream degrades to local durability.
	frame := make([]byte, 1<<20)
	for seq := uint64(0); seq < 16; seq++ {
		r.AppendFrame("Q12", seq, frame)
		if r.Degraded("Q12") {
			break
		}
	}
	if !r.Degraded("Q12") || !degraded.Load() {
		t.Fatal("held buffer grew past the cap without degrading")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.calls != 0 {
		t.Fatalf("degraded held shard shipped %d times", c.calls)
	}
}

func TestReplicatorDisarmReleasesWaiters(t *testing.T) {
	block := make(chan struct{})
	var ships atomic.Int32
	r := NewReplicator(func(shard string, from uint64, frames []byte, count int) error {
		ships.Add(1)
		<-block
		return nil
	})
	arm(r, "Q12", 0)
	wait := func(seq uint64) chan struct{} {
		done := make(chan struct{})
		go func() {
			_ = r.WaitFrame("Q12", seq)
			close(done)
		}()
		return done
	}
	// The first waiter ships its own frame and is parked in ship; the
	// second's frame missed that batch, so it waits for the first.
	r.AppendFrame("Q12", 0, []byte{1})
	leader := wait(0)
	for ships.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	r.AppendFrame("Q12", 1, []byte{2})
	follower := wait(1)
	time.Sleep(10 * time.Millisecond)
	r.DisarmAll()
	select {
	case <-follower:
	case <-time.After(5 * time.Second):
		t.Fatal("Disarm left a waiter blocked")
	}
	select {
	case <-leader:
		t.Fatal("the shipping waiter returned before its ship did")
	default:
	}
	// The leader returns as soon as its ship does, finds the shard
	// disarmed and ships nothing more.
	close(block)
	select {
	case <-leader:
	case <-time.After(5 * time.Second):
		t.Fatal("the shipping waiter stayed blocked after its ship returned")
	}
	if r.Streaming("Q12") {
		t.Fatal("shard still streaming after Disarm")
	}
	if n := ships.Load(); n != 1 {
		t.Fatalf("%d ships, want the one in flight at Disarm", n)
	}
}

// TestReleaseShipsHeldBufferBeforeReturning: the acks of frames buffered
// while held did not wait, so nobody may ever wait for them: Release
// itself ships them, in order, before it reports the shard streaming.
func TestReleaseShipsHeldBufferBeforeReturning(t *testing.T) {
	c := &collectShip{next: 7}
	r := NewReplicator(c.ship)
	r.Hold("Q12", 7)
	for seq := uint64(7); seq < 10; seq++ {
		r.AppendFrame("Q12", seq, []byte{byte(seq)})
	}
	r.Release("Q12")
	c.mu.Lock()
	defer c.mu.Unlock()
	if string(c.frames) != string([]byte{7, 8, 9}) || c.next != 10 {
		t.Fatalf("when Release returned the standby held frames %v, next %d; want 7 8 9, next 10", c.frames, c.next)
	}
	if !r.Streaming("Q12") {
		t.Fatal("released shard not streaming")
	}
}

// TestReplicatorZeroAllocs: in the steady state of a streaming shard —
// one frame appended, then waited for, which ships it — the frame
// buffer is the last shipped batch's storage, so an acked write
// allocates nothing here; and a batch past maxSpareBytes is not kept.
func TestReplicatorZeroAllocs(t *testing.T) {
	var shipped int
	r := NewReplicator(func(shard string, from uint64, frames []byte, count int) error {
		shipped += count
		return nil
	})
	arm(r, "Q12", 0)
	frame := make([]byte, 76)
	seq := uint64(0)
	write := func() {
		r.AppendFrame("Q12", seq, frame)
		if err := r.WaitFrame("Q12", seq); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
		t.Errorf("an acked write allocates %.1f times, want 0", allocs)
	}
	if shipped != int(seq) {
		t.Fatalf("shipped %d frames of %d", shipped, seq)
	}

	big := make([]byte, maxSpareBytes+1)
	r.AppendFrame("Q12", seq, big)
	if err := r.WaitFrame("Q12", seq); err != nil {
		t.Fatal(err)
	}
	s := r.shard("Q12")
	s.mu.Lock()
	defer s.mu.Unlock()
	if cap(s.spare) > maxSpareBytes || cap(s.buf) > maxSpareBytes {
		t.Errorf("a %d-byte batch is retained: spare %d, buffer %d bytes", len(big), cap(s.spare), cap(s.buf))
	}
}
