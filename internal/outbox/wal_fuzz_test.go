package outbox

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
)

// record serializes one WAL record for seeding and cross-checking.
func record(t testing.TB, kind byte, id uint64, msg []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeRecord(w, kind, id, msg); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWALReplay throws mutated and truncated log bytes at replayWAL. The
// invariants — what "always recovers a consistent prefix" means:
//
//   - replay never panics and never fails (a torn tail is normal, not an
//     error);
//   - no recovered entry exceeds maxWALPayload (a corrupt length prefix
//     must not drive allocation);
//   - ids are unique and nextID clears every one of them;
//   - the recovered backlog is self-consistent: re-serializing it and
//     replaying that yields the identical backlog (replay is a
//     projection — applying it twice changes nothing).
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(record(f, recEnqueue, 0, []byte("hello")))
	f.Add(append(
		record(f, recEnqueue, 1, []byte("a")),
		record(f, recDone, 1, nil)...))
	f.Add(append(
		record(f, recEnqueue, 2, bytes.Repeat([]byte("x"), 300)),
		record(f, recEnqueue, 3, []byte("tail"))...))
	// Oversized length prefix: must stop replay, not allocate.
	over := []byte{recEnqueue, 7}
	var n [binary.MaxVarintLen64]byte
	over = append(over, n[:binary.PutUvarint(n[:], maxWALPayload+1)]...)
	f.Add(over)
	// Truncated payload (header promises 100 bytes, delivers 3).
	torn := []byte{recEnqueue, 9, 100, 'a', 'b', 'c'}
	f.Add(torn)
	// Unknown record kind, then a record that must not be reached.
	f.Add(append([]byte{0xEE, 1}, record(f, recEnqueue, 4, []byte("after"))...))
	f.Add([]byte{recDone}) // id varint missing entirely
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, nextID, err := replayWAL(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("replay failed on arbitrary bytes: %v", err)
		}
		seen := make(map[uint64]bool, len(entries))
		var reser bytes.Buffer
		for _, e := range entries {
			if len(e.msg) > maxWALPayload {
				t.Fatalf("entry %d over-allocated: %d bytes", e.id, len(e.msg))
			}
			if seen[e.id] {
				t.Fatalf("duplicate id %d in recovered backlog", e.id)
			}
			seen[e.id] = true
			if e.id >= nextID {
				t.Fatalf("nextID %d does not clear recovered id %d", nextID, e.id)
			}
			reser.Write(record(t, recEnqueue, e.id, e.msg))
		}

		again, nextID2, err := replayWAL(bytes.NewReader(reser.Bytes()))
		if err != nil {
			t.Fatalf("re-replay failed: %v", err)
		}
		if len(again) != len(entries) {
			t.Fatalf("re-replay recovered %d entries, want %d", len(again), len(entries))
		}
		for i := range entries {
			if again[i].id != entries[i].id || !bytes.Equal(again[i].msg, entries[i].msg) {
				t.Fatalf("entry %d diverged on re-replay: %v vs %v", i, again[i], entries[i])
			}
		}
		if len(entries) > 0 && nextID2 > nextID {
			t.Fatalf("re-replay nextID grew: %d > %d", nextID2, nextID)
		}
	})
}

func TestReplayStopsAtTornTailKeepingPrefix(t *testing.T) {
	var log bytes.Buffer
	log.Write(record(t, recEnqueue, 0, []byte("first")))
	log.Write(record(t, recEnqueue, 1, []byte("second")))
	log.Write(record(t, recDone, 0, nil))
	full := record(t, recEnqueue, 2, []byte("third-to-be-torn"))
	log.Write(full[:len(full)-4]) // crash mid-payload

	entries, nextID, err := replayWAL(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].id != 1 || string(entries[0].msg) != "second" {
		t.Fatalf("recovered backlog %v, want just id 1", entries)
	}
	if nextID != 2 {
		t.Fatalf("nextID = %d, want 2 (torn record must not count)", nextID)
	}
}
