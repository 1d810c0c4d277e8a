package outbox

import (
	"context"
	"fmt"
	"sync"
)

// SendFunc transfers one message, blocking until it is confirmed
// delivered. netlink.Sender.Send, which session.Session drives, has this
// shape. msg is the queue's own buffer — a ring slot — valid until the
// call returns: an implementation that keeps the bytes longer copies
// them (the stations do — the transmitter copies the message into its
// own memory before Send returns).
type SendFunc func(ctx context.Context, msg []byte) error

// Config parameterizes a Queue.
type Config struct {
	// Send transfers messages. Required.
	Send SendFunc
	// Retryable reports whether a Send error means "resubmit" (a station
	// crash wiped the in-flight message) rather than "give up". Nil means
	// never resubmit.
	Retryable func(error) bool
	// WALPath persists the backlog; empty means memory-only.
	WALPath string
	// WALSync fsyncs every enqueue record to the device before Enqueue
	// returns (power-loss durability); without it, records are flushed to
	// the kernel per enqueue (process-crash durability).
	WALSync bool
	// MaxAttempts bounds resubmissions per message (0 = unlimited).
	MaxAttempts int
	// Window is the number of concurrent send workers (default 1). Each
	// worker claims the oldest unclaimed backlog message, so dispatch
	// follows enqueue order; more than one worker only helps when Send
	// admits concurrent transfers (a windowed station, whose receiver
	// restores admission order — with a plain stop-and-wait station the
	// extra workers just serialize on it).
	Window int
}

// Stats counts queue activity.
type Stats struct {
	Enqueued  int // messages accepted
	Sent      int // messages confirmed
	Resubmits int // crash-triggered retries
	Pending   int // messages not yet confirmed
}

// What an idle queue keeps. The backlog ring doubles while a burst fills
// it and halves again as the burst drains, down to ringKeep slots; a
// slot's message buffer is reused by the next message to land there unless
// it grew beyond maxKeptMsg, in which case it goes back to the garbage
// collector when its message is confirmed. So an idle queue holds at most
// ringKeep × maxKeptMsg bytes of buffers (128 KiB), whatever the deepest
// backlog or the largest message it ever carried.
const (
	ringKeep   = 64
	maxKeptMsg = 2 << 10
)

// entryState is where a backlog entry stands.
type entryState uint8

const (
	queued  entryState = iota // waiting for a worker
	claimed                   // held by a worker's in-flight Send
	done                      // confirmed, waiting for the head to pop past it
)

// entry is one slot of the backlog ring: a message and its dispatch state.
type entry struct {
	id       uint64
	msg      []byte // the slot's own buffer, see maxKeptMsg
	state    entryState
	attempts int // failed Sends so far
}

// Queue is the buffering higher layer: enqueue at will, messages go out
// in order — one at a time by default, up to Window at a time with
// concurrent workers — and crashes cause resubmission.
type Queue struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	// The backlog is ring[head:tail] in enqueue order. head and tail are
	// positions that only ever grow; position p lives in slot p mod
	// len(ring), and len(ring) is a power of two, so a worker can name its
	// entry by position across a resize. ring[head] is never done: a
	// confirm pops the head past every done entry.
	ring       []entry
	head, tail uint64
	nextID     uint64
	log        *wal
	stats      Stats
	err        error // sticky fatal error from Send
	closed     bool

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
}

// New opens the queue (replaying the WAL backlog if configured) and
// starts its workers.
func New(cfg Config) (*Queue, error) {
	if cfg.Send == nil {
		return nil, fmt.Errorf("outbox: Send is required")
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	q := &Queue{cfg: cfg, done: make(chan struct{})}
	q.cond = sync.NewCond(&q.mu)
	q.ctx, q.cancel = context.WithCancel(context.Background())

	if cfg.WALPath != "" {
		log, backlog, nextID, err := openWAL(cfg.WALPath, cfg.WALSync)
		if err != nil {
			return nil, err
		}
		q.log = log
		for _, e := range backlog {
			q.push(e.id, e.msg)
		}
		q.nextID = nextID
		q.stats.Pending = len(backlog)
	}
	var wg sync.WaitGroup
	for i := 0; i < cfg.Window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.worker()
		}()
	}
	go func() {
		wg.Wait()
		close(q.done)
	}()
	return q, nil
}

// Enqueue accepts a message for ordered, confirmed delivery and returns
// its queue id. The queue copies msg; the caller may reuse it at once.
// With a WAL, the message is durable before Enqueue returns.
func (q *Queue) Enqueue(msg []byte) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return 0, errClosed
	}
	if q.err != nil {
		return 0, q.err
	}
	id := q.nextID
	q.nextID++
	e := q.push(id, msg)
	if q.log != nil {
		// Logged from the queue's copy: the caller's bytes are read by the
		// copy and nothing else, so a caller's stack buffer stays on its
		// stack (a log write is an interface call, which would move it to
		// the heap).
		if err := q.log.appendEnqueue(id, e.msg); err != nil {
			q.tail-- // not accepted: the slot is free again
			return 0, err
		}
	}
	q.stats.Enqueued++
	q.stats.Pending++
	q.cond.Broadcast()
	return id, nil
}

// Flush blocks until the backlog is empty, the queue fails, or ctx ends.
func (q *Queue) Flush(ctx context.Context) error {
	// Wake the waiter when ctx ends: Cond has no context support. The
	// broadcast takes the lock, so it cannot fall between the loop's
	// ctx check and its Wait and be lost.
	defer context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})()

	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head != q.tail && q.err == nil && !q.closed {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		q.cond.Wait()
	}
	if q.err != nil {
		return q.err
	}
	if q.closed && q.head != q.tail {
		return errClosed
	}
	return ctx.Err()
}

// Stats returns a snapshot of the counters.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Err returns the queue's sticky fatal error, if any.
func (q *Queue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Close stops the worker (abandoning any in-flight Send) and closes the
// WAL; unsent messages stay in the log for the next open.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		<-q.done
		return nil
	}
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()

	q.cancel()
	<-q.done

	q.mu.Lock()
	defer q.mu.Unlock()
	return q.log.close()
}

// slot returns the ring slot of position pos. Call with q.mu held; the
// pointer is good until the next push or confirm, which may resize.
func (q *Queue) slot(pos uint64) *entry { return &q.ring[pos&uint64(len(q.ring)-1)] }

// resize moves the backlog into a ring of n slots (a power of two no
// smaller than the backlog). Positions are absolute, so nothing is
// renumbered; free slots' buffers are left behind. Call with q.mu held.
func (q *Queue) resize(n int) {
	// The ring doubles when a burst fills it and halves as it drains: the
	// allocation is amortized over the burst.
	ring := make([]entry, n)
	for p := q.head; p != q.tail; p++ {
		ring[p&uint64(n-1)] = *q.slot(p)
	}
	q.ring = ring
}

// push appends a copy of msg to the backlog, in the slot's kept buffer,
// and returns the slot. Call with q.mu held.
func (q *Queue) push(id uint64, msg []byte) *entry {
	if int(q.tail-q.head) == len(q.ring) {
		q.resize(max(2*len(q.ring), 8))
	}
	e := q.slot(q.tail)
	e.msg = e.msg[:0]
	e.msg = append(e.msg, msg...)
	e.id, e.state, e.attempts = id, queued, 0
	q.tail++
	return e
}

// claim marks the oldest queued entry claimed and returns its position.
// The entries ahead of it are the other workers' claims and confirms
// waiting behind a claim, so the scan is as short as the window is deep.
// Call with q.mu held.
func (q *Queue) claim() (pos uint64, ok bool) {
	for pos = q.head; pos != q.tail && q.slot(pos).state != queued; pos++ {
	}
	if pos == q.tail {
		return 0, false
	}
	q.slot(pos).state = claimed
	return pos, true
}

// confirm marks the entry at pos done, logging it, and pops the head past every done entry: O(1) for the head itself, and an
// out-of-order confirm (Window > 1) just waits its turn. Then the ring
// gives back what a drained burst no longer needs. Call with q.mu held.
func (q *Queue) confirm(pos uint64) {
	e := q.slot(pos)
	e.state = done
	if q.log != nil {
		if err := q.log.appendDone(e.id); err != nil && q.err == nil {
			q.err = err
		}
	}
	q.stats.Sent++
	q.stats.Pending--
	for q.head != q.tail && q.slot(q.head).state == done {
		if e := q.slot(q.head); cap(e.msg) > maxKeptMsg {
			e.msg = nil
		}
		q.head++
	}
	size := len(q.ring)
	for size > ringKeep && int(q.tail-q.head)*4 <= size {
		size /= 2
	}
	if size != len(q.ring) {
		q.resize(size)
	}
}

// requeue returns the claimed entry at pos to the backlog after a failed
// Send, for any worker to send again, or reports that its attempts are
// spent. Call with q.mu held.
func (q *Queue) requeue(pos uint64, err error) error {
	e := q.slot(pos)
	e.attempts++
	if q.cfg.Retryable == nil || !q.cfg.Retryable(err) || (q.cfg.MaxAttempts != 0 && e.attempts >= q.cfg.MaxAttempts) {
		return fmt.Errorf("outbox: message %d: %w", e.id, err)
	}
	e.state = queued
	q.stats.Resubmits++
	return nil
}

// worker claims backlog entries in enqueue order and drives each through
// Send. With Window workers, up to Window claims are in flight at once; a
// failed retryable Send unclaims its entry, so any worker — not
// necessarily the same one — resubmits it, byte-identical (which is what
// lets a windowed station's receiver drop the duplicate by its reused
// admission seq).
func (q *Queue) worker() {
	for {
		var pos uint64
		q.mu.Lock()
		for {
			if q.closed || q.err != nil {
				q.mu.Unlock()
				return
			}
			var ok bool
			if pos, ok = q.claim(); ok {
				break
			}
			q.cond.Wait()
		}
		msg := q.slot(pos).msg
		q.mu.Unlock()

		// msg is the claimed slot's buffer: nothing writes it until this
		// worker confirms the claim, and a resize moves slice headers, not
		// bytes.
		err := q.cfg.Send(q.ctx, msg)
		if err != nil && q.ctx.Err() != nil {
			return // closing
		}
		q.mu.Lock()
		if err == nil {
			q.confirm(pos)
		} else if err = q.requeue(pos, err); err != nil {
			q.err = err // the next pass finds it and stops
		}
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}
