package outbox

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"ghm/internal/testutil"
)

// collector is a SendFunc that records messages, with scriptable failures.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	fail func(attempt int, msg []byte) error
	n    int
}

func (c *collector) send(ctx context.Context, msg []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if c.fail != nil {
		if err := c.fail(c.n, msg); err != nil {
			return err
		}
	}
	c.got = append(c.got, append([]byte(nil), msg...))
	return nil
}

func (c *collector) messages() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.got))
	for i, m := range c.got {
		out[i] = string(m)
	}
	return out
}

var errCrash = errors.New("station crashed")

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestOrderedDelivery(t *testing.T) {
	var c collector
	q, err := New(Config{Send: c.send})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	for i := 0; i < 10; i++ {
		if _, err := q.Enqueue([]byte(fmt.Sprintf("m-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	got := c.messages()
	if len(got) != 10 {
		t.Fatalf("sent %d messages", len(got))
	}
	for i, m := range got {
		if want := fmt.Sprintf("m-%d", i); m != want {
			t.Errorf("position %d = %q, want %q", i, m, want)
		}
	}
	st := q.Stats()
	if st.Sent != 10 || st.Pending != 0 || st.Resubmits != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestResubmitOnRetryableError(t *testing.T) {
	c := collector{fail: func(attempt int, msg []byte) error {
		if attempt <= 2 { // first two attempts crash
			return errCrash
		}
		return nil
	}}
	q, err := New(Config{
		Send:      c.send,
		Retryable: func(err error) bool { return errors.Is(err, errCrash) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Enqueue([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := c.messages(); len(got) != 1 || got[0] != "survivor" {
		t.Fatalf("messages = %v", got)
	}
	if st := q.Stats(); st.Resubmits != 2 {
		t.Errorf("Resubmits = %d, want 2", st.Resubmits)
	}
}

func TestFatalErrorSticks(t *testing.T) {
	boom := errors.New("boom")
	c := collector{fail: func(int, []byte) error { return boom }}
	q, err := New(Config{Send: c.send}) // no Retryable: any error is fatal
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Enqueue([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(testCtx(t)); !errors.Is(err, boom) {
		t.Fatalf("Flush = %v, want boom", err)
	}
	if err := q.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err = %v", err)
	}
	if _, err := q.Enqueue([]byte("y")); !errors.Is(err, boom) {
		t.Fatalf("Enqueue after failure = %v", err)
	}
}

func TestMaxAttempts(t *testing.T) {
	c := collector{fail: func(int, []byte) error { return errCrash }}
	q, err := New(Config{
		Send:        c.send,
		Retryable:   func(err error) bool { return errors.Is(err, errCrash) },
		MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if _, err := q.Enqueue([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(testCtx(t)); !errors.Is(err, errCrash) {
		t.Fatalf("Flush = %v", err)
	}
	if st := q.Stats(); st.Resubmits != 2 { // attempts 1..3, two resubmits
		t.Errorf("Resubmits = %d, want 2", st.Resubmits)
	}
}

func TestWALPersistsBacklogAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")

	// First life: enqueue 3, deliver 1; the second send never completes
	// (it dies with the context when the "process" goes down), so
	// messages 1 and 2 stay in the WAL.
	inFlight := make(chan struct{})
	var calls int
	var mu sync.Mutex
	firstSend := func(ctx context.Context, msg []byte) error {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n >= 2 {
			if n == 2 {
				close(inFlight)
			}
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	q1, err := New(Config{Send: firstSend, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q1.Enqueue([]byte(fmt.Sprintf("wal-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	<-inFlight // message 0 delivered, message 1 in flight
	q1.Close()

	// Second life: the backlog must contain messages 1 and 2 (0 was
	// confirmed; 1 was in flight and unconfirmed, so it reappears —
	// at-least-once across crashes, as documented).
	var second collector
	q2, err := New(Config{Send: second.send, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if err := q2.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	got := second.messages()
	if len(got) < 2 {
		t.Fatalf("second life sent %v", got)
	}
	if got[len(got)-1] != "wal-2" {
		t.Errorf("last message = %q, want wal-2", got[len(got)-1])
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("order broken: %v", got)
		}
	}
}

func TestWALSurvivesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	// The first life confirms nothing: a Send that got through before Close
	// would leave the second life nothing to replay.
	stuck := func(ctx context.Context, _ []byte) error { <-ctx.Done(); return ctx.Err() }
	q, err := New(Config{Send: stuck, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	q.Close()

	// Corrupt the tail: append garbage mimicking a crash mid-write.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{recEnqueue, 0xFF}) // truncated varint
	f.Close()

	var c2 collector
	q2, err := New(Config{Send: c2.send, WALPath: path})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer q2.Close()
	if err := q2.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := c2.messages(); len(got) != 1 || got[0] != "keep-me" {
		t.Fatalf("messages = %v", got)
	}
}

func TestWALCompactionDropsDone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	var c collector
	q, err := New(Config{Send: c.send, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := q.Enqueue([]byte(fmt.Sprintf("m-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	q.Close()

	// Reopen compacts: everything was confirmed, so the file shrinks to
	// (near) empty.
	var c2 collector
	q2, err := New(Config{Send: c2.send, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	q2.Close()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("compacted WAL is %d bytes, want 0", info.Size())
	}
}

func TestIDsAreUniqueAcrossLives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "outbox.wal")
	var c collector
	q, err := New(Config{Send: c.send, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := q.Enqueue([]byte("a"))
	q.Flush(testCtx(t))
	q.Close()

	q2, err := New(Config{Send: c.send, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	id2, _ := q2.Enqueue([]byte("b"))
	if id2 <= id1 {
		t.Errorf("id reuse across lives: %d then %d", id1, id2)
	}
}

func TestWALSyncRoundtrip(t *testing.T) {
	// Behavioural parity: with WALSync every enqueue fsyncs, and the
	// backlog still persists and replays identically.
	path := filepath.Join(t.TempDir(), "outbox.wal")
	q, err := New(Config{
		Send:    func(ctx context.Context, msg []byte) error { <-ctx.Done(); return ctx.Err() },
		WALPath: path, WALSync: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue([]byte(fmt.Sprintf("sync-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()

	var c collector
	q2, err := New(Config{Send: c.send, WALPath: path, WALSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if err := q2.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if got := c.messages(); len(got) != 3 || got[0] != "sync-0" || got[2] != "sync-2" {
		t.Fatalf("messages = %v", got)
	}
}

func TestCloseIdempotentAndUnblocks(t *testing.T) {
	blocked := make(chan struct{})
	q, err := New(Config{Send: func(ctx context.Context, msg []byte) error {
		close(blocked)
		<-ctx.Done()
		return ctx.Err()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue([]byte("stuck")); err != nil {
		t.Fatal(err)
	}
	<-blocked
	done := make(chan struct{})
	go func() {
		q.Close()
		q.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight send")
	}
	if _, err := q.Enqueue([]byte("late")); err == nil {
		t.Error("Enqueue after Close succeeded")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing Send accepted")
	}
	if _, err := New(Config{Send: func(context.Context, []byte) error { return nil },
		WALPath: filepath.Join(t.TempDir(), "sub", "nope", "x.wal")}); err == nil {
		t.Error("unwritable WAL path accepted")
	}
}

// TestEnqueueCopiesMessage: Enqueue copies in, so a caller that reuses its
// slice the moment Enqueue returns changes nothing that is sent, with a
// WAL or without.
func TestEnqueueCopiesMessage(t *testing.T) {
	for _, wal := range []bool{false, true} {
		t.Run(fmt.Sprintf("wal=%v", wal), func(t *testing.T) {
			release := make(chan struct{})
			var c collector
			cfg := Config{Send: func(ctx context.Context, msg []byte) error {
				<-release // every message is enqueued, and its source scribbled on, before any is sent
				return c.send(ctx, msg)
			}}
			if wal {
				cfg.WALPath = filepath.Join(t.TempDir(), "outbox.wal")
			}
			q, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			buf := make([]byte, 16)
			var want []string
			for i := 0; i < 100; i++ {
				copy(buf, fmt.Sprintf("payload-%08d", i))
				want = append(want, string(buf))
				if _, err := q.Enqueue(buf); err != nil {
					t.Fatal(err)
				}
				clear(buf)
			}
			close(release)
			if err := q.Flush(testCtx(t)); err != nil {
				t.Fatal(err)
			}
			got := c.messages()
			if len(got) != len(want) {
				t.Fatalf("sent %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("message %d sent as %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

func enqueueAll(t *testing.T, q *Queue, msgs ...string) {
	t.Helper()
	for _, m := range msgs {
		if _, err := q.Enqueue([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
}

// heldCall is one Send in progress: what it carries, and where the test
// says how it ends.
type heldCall struct {
	msg     string
	resolve chan error
}

// heldSend is a SendFunc whose every call blocks until the test resolves
// it, and a next that waits for the next call to start.
func heldSend(depth int) (SendFunc, func(t *testing.T) heldCall) {
	calls := make(chan heldCall, depth)
	send := func(ctx context.Context, msg []byte) error {
		c := heldCall{msg: string(msg), resolve: make(chan error, 1)}
		calls <- c
		select {
		case err := <-c.resolve:
			return err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	next := func(t *testing.T) heldCall {
		t.Helper()
		select {
		case c := <-calls:
			return c
		case <-time.After(10 * time.Second):
			t.Fatal("no Send started")
			panic("unreachable")
		}
	}
	return send, next
}

// TestRingWindowShuffledConfirms drives a Window-8 queue by hand: every
// Send blocks until the test resolves it, in shuffled order, and two
// entries crash once each. After each resolution exactly one new Send
// starts, and it carries the oldest entry not in flight — the crashed one
// again, byte-identical, or else the next in enqueue order: a model of the
// backlog says which. The backlog outgrows the ring three times while
// eight claims are in flight, so the workers' positions survive a resize.
func TestRingWindowShuffledConfirms(t *testing.T) {
	t.Run("single", shuffledConfirms)
}

func shuffledConfirms(t *testing.T) {
	const window, total = 8, 40
	send, next := heldSend(window)
	q, err := New(Config{
		Window:    window,
		Retryable: func(err error) bool { return errors.Is(err, errCrash) },
		Send:      send,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	name := func(i int) string { return fmt.Sprintf("m-%02d", i) }

	// The model: the entries [from, to) the messages form as they are
	// enqueued, where each stands, and from that the one entry a free
	// worker claims.
	const (
		isQueued = iota
		inFlight
		confirmed
	)
	type claim struct{ from, to int } // messages [from, to)
	var entries []claim
	enqueue := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := q.Enqueue([]byte(name(i))); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, claim{i, i + 1})
		}
	}
	state := map[claim]int{}
	message := func(c claim) string {
		msg := name(c.from)
		for i := c.from + 1; i < c.to; i++ {
			msg += "+" + name(i)
		}
		return msg
	}
	expect := func() (string, claim) {
		for _, c := range entries {
			if state[c] == isQueued {
				return message(c), c
			}
		}
		return "", claim{}
	}

	enqueue(0, window)
	inflight := map[string]heldCall{}
	claims := map[string]claim{}
	for i := 0; i < window; i++ {
		c := next(t)
		inflight[c.msg] = c
	}
	for i := 0; i < window; i++ {
		if _, ok := inflight[name(i)]; !ok {
			t.Fatalf("first window in flight is %v, want %s..%s", inflight, name(0), name(window-1))
		}
		claims[name(i)] = entries[i]
		state[entries[i]] = inFlight
	}
	enqueue(window, total) // 8 slots grow to 64 while every slot of the first ring is claimed

	rng := rand.New(rand.NewSource(8))
	crashed, resubmits := map[string]bool{}, 0
	for len(inflight) > 0 {
		keys := make([]string, 0, len(inflight))
		for k := range inflight {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		k := keys[rng.Intn(len(keys))]
		c, cl := inflight[k], claims[k]
		delete(inflight, k)
		delete(claims, k)

		outcome := error(nil)
		for _, victim := range []int{3, 20} {
			if cl.from <= victim && victim < cl.to && !crashed[name(victim)] {
				crashed[name(victim)] = true
				outcome = errCrash
			}
		}
		if outcome != nil {
			resubmits += cl.to - cl.from
			state[cl] = isQueued // older than anything still queued
		} else {
			state[cl] = confirmed
		}
		c.resolve <- outcome

		want, wcl := expect()
		if want == "" {
			continue
		}
		got := next(t)
		if got.msg != want {
			t.Fatalf("after resolving %s the next Send carries %q, want %q", k, got.msg, want)
		}
		inflight[got.msg], claims[got.msg] = got, wcl
		state[wcl] = inFlight
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	want := Stats{Enqueued: total, Sent: total, Resubmits: resubmits}
	if st := q.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head != q.tail || q.tail != uint64(len(entries)) {
		t.Errorf("ring head %d tail %d after %d entries confirmed", q.head, q.tail, len(entries))
	}
}

// TestRingRetainsConstantAfterBurst: what an idle queue keeps is bounded
// by ringKeep and maxKeptMsg, not by the deepest backlog or the largest
// message it carried.
func TestRingRetainsConstantAfterBurst(t *testing.T) {
	release := make(chan struct{})
	q, err := New(Config{Send: func(context.Context, []byte) error { <-release; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	msg := make([]byte, 600)
	for i := 0; i < 10_000; i++ {
		if _, err := q.Enqueue(msg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Enqueue(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	q.mu.Lock()
	deep := len(q.ring)
	q.mu.Unlock()
	if deep < 10_000 {
		t.Fatalf("ring of %d slots holds a 10 001-deep backlog", deep)
	}
	close(release)
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.ring) > ringKeep {
		t.Errorf("drained queue keeps a ring of %d slots, bound %d", len(q.ring), ringKeep)
	}
	kept := 0
	for _, e := range q.ring {
		if cap(e.msg) > maxKeptMsg {
			t.Errorf("drained queue keeps a %d-byte buffer, bound %d", cap(e.msg), maxKeptMsg)
		}
		kept += cap(e.msg)
	}
	if kept > ringKeep*maxKeptMsg {
		t.Errorf("drained queue keeps %d bytes of buffers, bound %d", kept, ringKeep*maxKeptMsg)
	}
}

// TestOutboxEnqueueAllocBudget pins the queue's steady state at zero
// allocations per message: Enqueue copies into the ring slot's kept
// buffer, the worker names its entry by position, and a WAL record's
// header is built in the log writer's own buffer. The caller's message is
// on its stack: an Enqueue that handed those bytes to an indirect call
// would move them to the heap, one allocation per message.
func TestOutboxEnqueueAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	for _, tc := range []struct {
		name string
		wal  bool
	}{
		{name: "wal=false"},
		{name: "wal=true", wal: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const burst = 4
			// Each Send reports in and waits to be let go: the first
			// message of a round is in flight before the rest are enqueued.
			started, release := make(chan struct{}), make(chan struct{})
			cfg := Config{Send: func(context.Context, []byte) error {
				started <- struct{}{}
				<-release
				return nil
			}}
			if tc.wal {
				cfg.WALPath = filepath.Join(t.TempDir(), "outbox.wal")
			}
			q, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			sends := 0
			round := func() {
				var msg [64]byte
				for i := 0; i < burst; i++ {
					if _, err := q.Enqueue(msg[:]); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						<-started
					}
				}
				for n := 1; ; <-started {
					release <- struct{}{}
					sends++
					if n == burst {
						return
					}
					n++
				}
			}
			for i := 0; i < 16; i++ {
				round() // every slot of the ring has its buffer
			}
			sends = 0
			if got := testing.AllocsPerRun(200, round); got != 0 {
				t.Errorf("%d Enqueues and confirms: %v allocs, want 0", burst, got)
			}
			want := 201 * burst // AllocsPerRun makes one run of its own first
			if sends != want {
				t.Errorf("%d Sends for 201 rounds of %d messages, want %d", sends, burst, want)
			}
		})
	}
}

// TestEnqueueWALFailureAcceptsNothing: the message is copied into the ring
// before its record is logged (the record is written from the queue's
// copy), so a log that fails must take the slot back — no entry, no count,
// nothing for a worker to send.
func TestEnqueueWALFailureAcceptsNothing(t *testing.T) {
	var c collector
	q, err := New(Config{Send: c.send, WALPath: filepath.Join(t.TempDir(), "outbox.wal")})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	q.mu.Lock()
	q.log.f.Close() // the disk goes away
	q.mu.Unlock()
	if _, err := q.Enqueue([]byte("lost")); err == nil {
		t.Fatal("Enqueue succeeded with the log closed")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head != q.tail || q.stats != (Stats{}) {
		t.Errorf("failed Enqueue left head %d tail %d stats %+v", q.head, q.tail, q.stats)
	}
	if got := c.messages(); len(got) != 0 {
		t.Errorf("failed Enqueue was sent: %v", got)
	}
}
