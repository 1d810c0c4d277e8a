package outbox

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlushWakesOnItsCancel: a cancel that lands between Flush's ctx
// check and its Wait must still wake it. The queue is wedged — its one
// Send never returns — so nothing else ever broadcasts, and a lost wakeup
// leaves Flush asleep for good. Flush/cancel pairs run for a second; a
// pair that makes no progress for half a second has slept through its
// cancel.
func TestFlushWakesOnItsCancel(t *testing.T) {
	q, err := New(Config{Send: func(ctx context.Context, msg []byte) error {
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Enqueue([]byte("wedged")); err != nil {
		t.Fatal(err)
	}
	var pairs atomic.Int64
	res := make(chan error, 1)
	go func() {
		for end := time.Now().Add(time.Second); time.Now().Before(end); {
			ctx, cancel := context.WithCancel(context.Background())
			go cancel()
			if err := q.Flush(ctx); !errors.Is(err, context.Canceled) {
				res <- fmt.Errorf("pair %d: Flush = %v, want %v", pairs.Load(), err, context.Canceled)
				return
			}
			pairs.Add(1)
		}
		res <- nil
	}()
	for seen := int64(-1); ; {
		select {
		case err := <-res:
			if err != nil {
				t.Fatal(err)
			}
			return
		case <-time.After(500 * time.Millisecond):
		}
		if n := pairs.Load(); n != seen {
			seen = n
			continue
		}
		q.Close() // wakes the sleeper, so it does not outlive the test
		<-res
		t.Fatalf("Flush slept through its own cancellation after %d pairs", seen)
	}
}
