package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLazyDeadlineMatchesWithDeadline holds a submission's lazily armed
// deadline to context.WithDeadline on the same parent: the same
// Deadline, Value, Err and Done, whether or not anything ever waited on
// it, and whichever of the parent's cancellation, the parent's deadline
// and its own deadline comes first.
func TestLazyDeadlineMatchesWithDeadline(t *testing.T) {
	type key struct{}
	const soon = 100 * time.Millisecond
	for _, tc := range []struct {
		name string
		// parentIn is the parent's own deadline from now (0: none), in
		// the request's.
		parentIn, in time.Duration
		// arm calls Done before anything expires; cancel cancels the
		// parent; wait observes once the request's deadline has passed.
		arm, cancel, wait bool
		wantErr           error
	}{
		{name: "before the deadline", in: time.Hour},
		{name: "before the deadline, armed", in: time.Hour, arm: true},
		{name: "past the deadline, never armed", in: soon, wait: true, wantErr: context.DeadlineExceeded},
		{name: "armed before the deadline", in: soon, arm: true, wait: true, wantErr: context.DeadlineExceeded},
		{name: "armed after the deadline", in: -time.Millisecond, wantErr: context.DeadlineExceeded},
		{name: "parent cancelled", in: time.Hour, cancel: true, wantErr: context.Canceled},
		{name: "parent cancelled, armed", in: time.Hour, arm: true, cancel: true, wantErr: context.Canceled},
		{name: "parent's deadline earlier", parentIn: time.Minute, in: time.Hour},
		{name: "own deadline earlier", parentIn: time.Hour, in: time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent, cancel := context.WithCancel(context.WithValue(context.Background(), key{}, "v"))
			defer cancel()
			now := time.Now()
			if tc.parentIn != 0 {
				var stop context.CancelFunc
				parent, stop = context.WithDeadline(parent, now.Add(tc.parentIn))
				defer stop()
			}
			deadline := now.Add(tc.in)
			var lazy lazyDeadline
			lazy.set(parent, deadline)
			defer lazy.release()
			ref, stop := context.WithDeadline(parent, deadline)
			defer stop()

			for _, c := range []struct {
				name string
				ctx  context.Context
			}{{"lazy", &lazy}, {"WithDeadline", ref}} {
				got, ok := c.ctx.Deadline()
				want := deadline
				if tc.parentIn != 0 && tc.parentIn < tc.in {
					want = now.Add(tc.parentIn)
				}
				if !ok || !got.Equal(want) {
					t.Errorf("%s: Deadline = %v, %v; want %v", c.name, got, ok, want)
				}
				if v := c.ctx.Value(key{}); v != "v" {
					t.Errorf("%s: Value = %v, want the parent's", c.name, v)
				}
			}
			if err := lazy.Err(); tc.in > 0 && err != nil {
				t.Fatalf("Err = %v before anything expired", err)
			}
			var done <-chan struct{}
			if tc.arm {
				done = lazy.Done()
				select {
				case <-done:
					t.Fatal("Done closed before anything expired")
				default:
				}
				if v := lazy.Value(key{}); v != "v" {
					t.Errorf("armed: Value = %v, want the parent's", v)
				}
			}
			if tc.cancel {
				cancel()
			}
			if tc.wait {
				if tc.arm {
					select {
					case <-done:
						if time.Now().Before(deadline) {
							t.Fatal("Done closed before the deadline")
						}
					case <-time.After(5 * time.Second):
						t.Fatal("armed Done did not close at the deadline")
					}
				}
				<-ref.Done() // closes once the deadline has passed
			}
			if tc.cancel {
				<-ref.Done()
			}
			// Err first, before the unarmed cases' Done arms them.
			if err := lazy.Err(); !errors.Is(err, tc.wantErr) {
				t.Errorf("lazy: Err = %v, want %v", err, tc.wantErr)
			}
			if err := ref.Err(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("WithDeadline: Err = %v, want %v (the reference itself)", err, tc.wantErr)
			}
			select {
			case <-lazy.Done():
				if tc.wantErr == nil {
					t.Error("Done closed with nothing expired")
				}
			default:
				if tc.wantErr != nil {
					t.Errorf("Done still open after %v", tc.wantErr)
				}
			}
			if err := lazy.Err(); !errors.Is(err, tc.wantErr) {
				t.Errorf("lazy, armed: Err = %v, want %v", err, tc.wantErr)
			}
		})
	}

	t.Run("concurrent Done arms once", func(t *testing.T) {
		var lazy lazyDeadline
		lazy.set(context.Background(), time.Now().Add(time.Hour))
		defer lazy.release()
		const waiters = 8
		chans := make([]<-chan struct{}, waiters)
		var wg sync.WaitGroup
		for i := range chans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				chans[i] = lazy.Done()
			}()
		}
		wg.Wait()
		for _, ch := range chans {
			if ch != chans[0] {
				t.Fatal("waiters got different Done channels")
			}
		}
	})

	t.Run("release stops an armed timer", func(t *testing.T) {
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		var lazy lazyDeadline
		lazy.set(parent, time.Now().Add(time.Hour))
		done := lazy.Done()
		armed := lazy.armed.Load()
		lazy.release()
		select {
		case <-done:
		default:
			t.Fatal("release left the armed context running")
		}
		if err := armed.ctx.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("armed context ended with %v, want Canceled: its timer stopped early", err)
		}
		if lazy.parent != nil || lazy.armed.Load() != nil {
			t.Fatal("release kept the parent or the armed context")
		}
		if parent.Err() != nil {
			t.Fatal("release cancelled the parent")
		}
	})
}
