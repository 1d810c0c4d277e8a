package outbox

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// joinSameLead is a toy Merge: messages that share a first byte join, with
// a '+' between them, so a test reads a run's entries back out of it.
func joinSameLead(run, next []byte) ([]byte, bool) {
	if run[0] != next[0] {
		return run, false
	}
	run = append(run, '+')
	return append(run, next...), true
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
// again, byte-identical, or else the next in enqueue order — where, with a
// Merge, an entry is the run its messages formed as they were enqueued: a
// model of the backlog says which. The backlog outgrows the ring while
// eight claims are in flight (three times without runs, twice with), so
// the workers' positions survive a resize; and Stats counts messages, not
// Sends, whatever the runs were.
func TestRingWindowShuffledConfirms(t *testing.T) {
	t.Run("single", func(t *testing.T) { shuffledConfirms(t, nil) })
	t.Run("runs", func(t *testing.T) { shuffledConfirms(t, joinSameLead) })
}

func shuffledConfirms(t *testing.T, merge func(run, next []byte) ([]byte, bool)) {
	const window, total = 8, 40
	send, next := heldSend(window)
	q, err := New(Config{
		Window:    window,
		Retryable: func(err error) bool { return errors.Is(err, errCrash) },
		Send:      send,
		Merge:     merge,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// The first window's messages have a first byte each, so that no two
	// join and every worker has a claim before the rest is enqueued; the
	// rest alternate their first byte every three, so with Merge they form
	// runs of up to three.
	name := func(i int) string {
		if i < window {
			return fmt.Sprintf("%c-%02d", 'a'+i, i)
		}
		return fmt.Sprintf("%c-%02d", 'm'+i/3%2, i)
	}

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
			if last := len(entries) - 1; merge != nil && i >= window && last >= window && name(entries[last].from)[0] == name(i)[0] {
				entries[last].to++ // every entry past the first window is queued until all are enqueued
				continue
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
	enqueue(window, total) // 8 slots grow to 64 (32 with runs) while every slot of the first ring is claimed

	rng := rand.New(rand.NewSource(8))
	crashed, resubmits, longest := map[string]bool{}, 0, 1
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
		longest = max(longest, wcl.to-wcl.from)
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	if merge != nil && longest < 2 {
		t.Error("no Send carried a run")
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

// TestRunTakesOnlyAdjacentQueued: a run is a message and the messages
// enqueued directly behind it that Merge takes while it is still queued.
// One that Merge refuses ends it, and so does a worker claiming it: a
// message enqueued behind a claimed entry starts a run of its own.
func TestRunTakesOnlyAdjacentQueued(t *testing.T) {
	const window = 8
	send, next := heldSend(window)
	q, err := New(Config{
		Window:    window,
		Retryable: func(err error) bool { return errors.Is(err, errCrash) },
		Send:      send,
		Merge:     joinSameLead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	enqueue := func(msgs ...string) { enqueueAll(t, q, msgs...) }
	// Eight messages that cannot join give every worker a claim, so from
	// here a claim is made only when the test resolves one.
	held := map[string]heldCall{}
	enqueue("0", "1", "2", "3", "4", "5", "6", "7")
	for i := 0; i < window; i++ {
		c := next(t)
		held[c.msg] = c
	}
	// resolve finishes one held Send and returns the Send its worker starts next.
	resolve := func(msg string, outcome error, want string) {
		t.Helper()
		held[msg].resolve <- outcome
		delete(held, msg)
		c := next(t)
		if c.msg != want {
			t.Fatalf("after %q resolved the next Send carries %q, want %q", msg, c.msg, want)
		}
		held[c.msg] = c
	}

	enqueue("a1", "a2", "b3", "a4", "a5")
	resolve("0", nil, "a1+a2") // b3 is refused, and a4 starts a run behind it
	resolve("1", nil, "b3")
	resolve("2", nil, "a4+a5")

	enqueue("c1")
	resolve("3", nil, "c1") // nothing queued behind it: it leaves alone
	enqueue("c2")           // c1 is claimed: a run of its own
	resolve("4", nil, "c2")
	enqueue("c3", "c4") // c2 is claimed: c3 starts a run
	resolve("c1", errCrash, "c1")
	resolve("c2", nil, "c3+c4")

	for _, c := range held {
		c.resolve <- nil
	}
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	want := Stats{Enqueued: 17, Sent: 17, Resubmits: 1}
	if st := q.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestRunFailureRequeuesEveryEntry: a retryable failure puts the run back
// whole, each of its messages counted, and it goes out again byte for
// byte; a message enqueued while it was in flight waits behind it, alone.
func TestRunFailureRequeuesEveryEntry(t *testing.T) {
	send, next := heldSend(1)
	q, err := New(Config{
		Retryable: func(err error) bool { return errors.Is(err, errCrash) },
		Send:      send,
		Merge:     joinSameLead,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	enqueue := func(msgs ...string) { enqueueAll(t, q, msgs...) }
	step := func(c heldCall, outcome error, want string) heldCall {
		t.Helper()
		c.resolve <- outcome
		n := next(t)
		if n.msg != want {
			t.Fatalf("next Send carries %q, want %q", n.msg, want)
		}
		return n
	}
	enqueue("a1")
	c := next(t) // the worker is busy: what follows queues up
	enqueue("a2", "a3")
	c = step(c, nil, "a2+a3")
	c = step(c, errCrash, "a2+a3") // the same bytes
	enqueue("a4")
	c = step(c, errCrash, "a2+a3")
	c = step(c, nil, "a4")
	c.resolve <- nil
	if err := q.Flush(testCtx(t)); err != nil {
		t.Fatal(err)
	}
	want := Stats{Enqueued: 4, Sent: 4, Resubmits: 4}
	if st := q.Stats(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
}

// TestWALReplaysEveryEntryOfARun: the log holds one record per entry, run
// or no run, so a queue closed with a run in flight and another queued
// replays each message of them: to a queue with no Merge, which sends them
// one by one, and to one with Merge, which folds them again — into the
// runs its backlog forms now, not the ones it was closed with.
func TestWALReplaysEveryEntryOfARun(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "outbox.wal")
	send, next := heldSend(1)
	q, err := New(Config{Send: send, Merge: joinSameLead, WALPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	enqueue := func(msgs ...string) { enqueueAll(t, q, msgs...) }
	enqueue("a1")
	first := next(t)
	enqueue("a2", "a3")
	first.resolve <- nil
	if run := next(t); run.msg != "a2+a3" {
		t.Fatalf("in flight at Close: %q, want the run a2+a3", run.msg)
	}
	enqueue("a4", "a5")
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		merge func(run, next []byte) ([]byte, bool)
		want  []string
	}{
		{want: []string{"a2", "a3", "a4", "a5"}},
		{merge: joinSameLead, want: []string{"a2+a3+a4+a5"}},
	} {
		replay := filepath.Join(dir, fmt.Sprintf("replay-%d.wal", len(tc.want)))
		if err := os.WriteFile(replay, log, 0o644); err != nil {
			t.Fatal(err)
		}
		var c collector
		q2, err := New(Config{Send: c.send, Merge: tc.merge, WALPath: replay})
		if err != nil {
			t.Fatal(err)
		}
		if err := q2.Flush(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		if got := c.messages(); !slices.Equal(got, tc.want) {
			t.Errorf("replayed %q, want %q", got, tc.want)
		}
		if st := q2.Stats(); st.Sent != 4 || st.Pending != 0 {
			t.Errorf("replay of %q: stats %+v, want 4 sent", tc.want, st)
		}
		q2.Close()
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
// buffer and, with Merge, folds the copy into the queued tail slot's
// buffer, the worker names its entry by position, and a WAL record's
// header is built in the log writer's own buffer. The caller's message is
// on its stack: an Enqueue that handed those bytes to Merge, an indirect
// call, would move them to the heap, one allocation per message.
func TestOutboxEnqueueAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector measure the detector")
	}
	for _, tc := range []struct {
		name  string
		wal   bool
		merge func(run, next []byte) ([]byte, bool)
	}{
		{name: "wal=false"},
		{name: "wal=true", wal: true},
		{name: "merge", merge: joinSameLead}, // the tail slots' buffers have grown to a run by the time it counts
		{name: "merge,wal=true", wal: true, merge: joinSameLead},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const burst = 4
			// Each Send reports in, waits to be let go, and says how many
			// messages it carried: the first message of a round is in
			// flight before the rest are enqueued, so with Merge they fold
			// into one run of burst-1 as they come, every round.
			started, release, sent := make(chan struct{}), make(chan struct{}), make(chan int)
			cfg := Config{Merge: tc.merge, Send: func(_ context.Context, msg []byte) error {
				started <- struct{}{}
				<-release
				sent <- bytes.Count(msg, []byte("+")) + 1
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
				for n := 0; ; <-started {
					release <- struct{}{}
					sends++
					if n += <-sent; n == burst {
						return
					}
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
			if tc.merge != nil {
				want = 201 * 2 // one message alone, burst-1 as a run
			}
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
