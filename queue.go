package ghm

import (
	"context"
	"errors"
	"fmt"

	"ghm/internal/outbox"
)

// Queue is the buffering higher layer the protocol model assumes
// (Axiom 1: "messages are buffered instead in the higher layer"):
// applications enqueue messages at will, and the queue transfers them in
// order through a Sender, automatically resubmitting messages that a
// station crash wiped mid-flight.
//
// Semantics: while no station crashes, delivery is exactly-once (the
// protocol's own guarantee). Across sender crashes it is at-least-once —
// a wiped message may or may not have reached the receiver before the
// crash, and the queue resubmits it; deduplicate by an application-level
// id (the queue's Enqueue id works) if that matters.
//
// With a WAL path, the backlog additionally survives process restarts:
// reopen the queue with the same path and the unconfirmed suffix is
// retransferred.
type Queue struct {
	q *outbox.Queue
}

// QueueOption configures NewQueue.
type QueueOption interface {
	applyQueue(*queueOptions)
}

type queueOptions struct {
	walPath     string
	walSync     bool
	maxAttempts int
}

type walOption string

func (w walOption) applyQueue(o *queueOptions) { o.walPath = string(w) }

// WithWAL persists the backlog to a write-ahead log at path, making the
// queue itself survive process restarts.
//
// Durability contract: every record is flushed to the operating system
// before Enqueue returns, so an acknowledged enqueue survives a process
// crash. It does not by itself survive a kernel panic or power loss —
// add WithWALSync for that. A crash mid-write tears at most the final
// record; reopening recovers the longest consistent prefix and compacts
// the log.
func WithWAL(path string) QueueOption { return walOption(path) }

type walSyncOption struct{}

func (walSyncOption) applyQueue(o *queueOptions) { o.walSync = true }

// WithWALSync upgrades WithWAL's durability from process-crash to
// power-loss: every enqueue record is fsynced to the storage device
// before Enqueue returns, at the cost of one fsync per message.
func WithWALSync() QueueOption { return walSyncOption{} }

type attemptsOption int

func (a attemptsOption) applyQueue(o *queueOptions) { o.maxAttempts = int(a) }

// WithMaxAttempts bounds crash-triggered resubmissions per message
// (default: unlimited).
func WithMaxAttempts(n int) QueueOption { return attemptsOption(n) }

// NewQueue starts a queue draining into s. Close the queue before the
// sender.
func NewQueue(s *Sender, opts ...QueueOption) (*Queue, error) {
	var o queueOptions
	for _, opt := range opts {
		opt.applyQueue(&o)
	}
	q, err := outbox.New(outbox.Config{
		Send:        s.Send,
		Retryable:   func(err error) bool { return errors.Is(err, ErrCrashed) },
		WALPath:     o.walPath,
		WALSync:     o.walSync,
		MaxAttempts: o.maxAttempts,
	})
	if err != nil {
		return nil, fmt.Errorf("ghm: %w", err)
	}
	return &Queue{q: q}, nil
}

// Enqueue accepts msg for ordered delivery and returns its queue id (also
// usable as an application-level dedup key). The queue copies msg, so the
// caller may reuse it at once. With a WAL the message is durable before
// Enqueue returns.
func (q *Queue) Enqueue(msg []byte) (uint64, error) { return q.q.Enqueue(msg) }

// Flush blocks until every enqueued message is confirmed delivered, the
// queue fails fatally, or ctx ends.
func (q *Queue) Flush(ctx context.Context) error { return q.q.Flush(ctx) }

// Stats returns queue counters.
func (q *Queue) Stats() QueueStats {
	st := q.q.Stats()
	return QueueStats{
		Enqueued:  st.Enqueued,
		Sent:      st.Sent,
		Resubmits: st.Resubmits,
		Pending:   st.Pending,
	}
}

// Err returns the queue's sticky fatal error, if any.
func (q *Queue) Err() error { return q.q.Err() }

// Close stops the queue; with a WAL, unconfirmed messages remain durable
// for the next open.
func (q *Queue) Close() error { return q.q.Close() }

// QueueStats counts queue activity.
type QueueStats struct {
	Enqueued  int // messages accepted
	Sent      int // messages confirmed delivered
	Resubmits int // crash-triggered retries
	Pending   int // not yet confirmed
}
