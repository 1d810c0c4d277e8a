// Package outbox implements the higher layer the paper's Axiom 1 assumes:
// "the data link does not need to buffer messages. These messages are
// buffered instead in the higher layer."
//
// A Queue accepts messages, feeds them one at a time to a blocking send
// function (ghm.Sender.Send has exactly the right shape), resubmits
// messages wiped by station crashes, and — optionally — persists its
// backlog in a write-ahead log so the queue itself survives process
// restarts. The protocol stations' memory is volatile by design (that is
// the paper's entire premise); the application's send queue need not be.
//
// Semantics: exactly-once end to end while no station crashes (the
// protocol's own guarantee); at-least-once across sender crashes, because
// a wiped in-flight message may or may not have reached the receiver and
// the queue resubmits it. Consumers needing exactly-once across crashes
// deduplicate by application-level message id, which Queue assigns and
// exposes.
package outbox

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// WAL record kinds.
const (
	recEnqueue byte = 1
	recDone    byte = 2
)

// maxWALPayload bounds replayed message bodies (defensive: a corrupted
// length prefix must not allocate gigabytes).
const maxWALPayload = 64 << 20

// wal is an append-only log of enqueue/done records. The tail may be torn
// by a crash mid-write; replay stops at the first malformed record and
// the file is truncated to the last good offset on open.
type wal struct {
	f    *os.File
	w    *bufio.Writer
	sync bool // fsync after every enqueue record
}

// walEntry is one surviving message after replay.
type walEntry struct {
	id  uint64
	msg []byte
}

// openWAL opens (or creates) the log at path, replays it, compacts the
// surviving backlog into a fresh file, and returns the open log plus the
// backlog in enqueue order. With sync set, every subsequent enqueue
// record is fsynced before Enqueue returns.
func openWAL(path string, sync bool) (*wal, []walEntry, uint64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("outbox: open wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("outbox: replay wal: %w", err)
	}
	entries, nextID, err := replayWAL(f)
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}

	// Compact: rewrite only the surviving backlog. Write to a temp file
	// and rename over, so a crash during compaction loses nothing.
	tmp := path + ".compact"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("outbox: compact wal: %w", err)
	}
	bw := bufio.NewWriter(tf)
	for _, e := range entries {
		if err := writeRecord(bw, recEnqueue, e.id, e.msg); err != nil {
			tf.Close()
			f.Close()
			return nil, nil, 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		tf.Close()
		f.Close()
		return nil, nil, 0, fmt.Errorf("outbox: compact wal: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		f.Close()
		return nil, nil, 0, fmt.Errorf("outbox: compact wal: %w", err)
	}
	f.Close()
	if err := os.Rename(tmp, path); err != nil {
		tf.Close()
		return nil, nil, 0, fmt.Errorf("outbox: compact wal: %w", err)
	}
	if _, err := tf.Seek(0, io.SeekEnd); err != nil {
		tf.Close()
		return nil, nil, 0, fmt.Errorf("outbox: compact wal: %w", err)
	}
	return &wal{f: tf, w: bufio.NewWriter(tf), sync: sync}, entries, nextID, nil
}

// replayWAL scans a log, returning the not-yet-done entries in order and
// the next free id. A torn tail — truncation, a corrupt length, an
// unknown kind — ends the replay silently at the last good record; it
// never fails and never allocates more than maxWALPayload per entry.
func replayWAL(src io.Reader) ([]walEntry, uint64, error) {
	r := bufio.NewReader(src)
	byID := make(map[uint64][]byte)
	var order []uint64
	var nextID uint64

	for {
		kind, err := r.ReadByte()
		if err != nil {
			break // clean EOF or torn tail: stop replay
		}
		id, err := binary.ReadUvarint(r)
		if err != nil {
			break
		}
		switch kind {
		case recEnqueue:
			n, err := binary.ReadUvarint(r)
			if err != nil || n > maxWALPayload {
				goto done
			}
			msg := make([]byte, n)
			if _, err := io.ReadFull(r, msg); err != nil {
				goto done
			}
			if _, dup := byID[id]; !dup {
				byID[id] = msg
				order = append(order, id)
			}
			if id >= nextID {
				nextID = id + 1
			}
		case recDone:
			delete(byID, id)
		default:
			goto done // unknown record: treat as torn tail
		}
	}
done:
	var entries []walEntry
	for _, id := range order {
		if msg, ok := byID[id]; ok {
			entries = append(entries, walEntry{id: id, msg: msg})
		}
	}
	return entries, nextID, nil
}

// writeRecord appends one record to w. The header (21 bytes at most) is
// built in w's own free space (bufio.Writer.AvailableBuffer), so a record
// written into a flushed writer — every Enqueue and every confirm — costs
// no allocation; only compaction's unflushed run of records can find the
// space short, and then append allocates.
func writeRecord(w *bufio.Writer, kind byte, id uint64, msg []byte) error {
	hdr := w.AvailableBuffer()
	hdr = append(hdr, kind)
	hdr = binary.AppendUvarint(hdr, id)
	if kind == recEnqueue {
		hdr = binary.AppendUvarint(hdr, uint64(len(msg)))
	}
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("outbox: wal write: %w", err)
	}
	if kind == recEnqueue {
		if _, err := w.Write(msg); err != nil {
			return fmt.Errorf("outbox: wal write: %w", err)
		}
	}
	return nil
}

// appendEnqueue logs a new message. The record always reaches the kernel
// (Flush) before Enqueue returns, so it survives a process crash; with
// l.sync it is also fsynced to the device, surviving power loss, at the
// cost of one fsync per enqueue.
func (l *wal) appendEnqueue(id uint64, msg []byte) error {
	if err := writeRecord(l.w, recEnqueue, id, msg); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("outbox: wal flush: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("outbox: wal sync: %w", err)
		}
	}
	return nil
}

// appendDone logs completion; durability is best-effort (losing a done
// record only risks a resend, which the semantics already allow).
func (l *wal) appendDone(id uint64) error {
	if err := writeRecord(l.w, recDone, id, nil); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("outbox: wal flush: %w", err)
	}
	return nil
}

func (l *wal) close() error {
	if l == nil {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}

var errClosed = errors.New("outbox: closed")
