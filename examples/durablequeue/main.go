// Durable queue: the buffering higher layer the paper's model assumes
// (Axiom 1), taken to production shape — an application enqueues work
// on a Session, which transfers it in order with crash resubmission, and
// a write-ahead log lets the *application* die and restart without losing
// its backlog. (The protocol stations' memory stays volatile throughout;
// surviving THEIR crashes is the protocol's job, demonstrated live here
// too.)
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"ghm"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	walPath := filepath.Join(os.TempDir(), fmt.Sprintf("ghm-outbox-%d.wal", os.Getpid()))
	defer os.Remove(walPath)

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// ---- first life of the application ----
	fmt.Println("life 1: enqueue 6 reports; the link is down, nothing can be sent")
	deadLeft, _ := ghm.Pipe(ghm.PipeFaults{Loss: 1, Seed: 1}) // a dead link
	deadLink := ghm.Share(deadLeft)
	session1, err := ghm.NewSession(ghm.SessionConfig{Dial: deadLink.Dial, WAL: walPath})
	if err != nil {
		return err
	}
	for i := 1; i <= 6; i++ {
		id, err := session1.Enqueue([]byte(fmt.Sprintf("report-%d", i)))
		if err != nil {
			return err
		}
		fmt.Printf("  enqueued report-%d (durable id %d)\n", i, id)
	}
	// The "process" dies: nothing was delivered, but the WAL has it all.
	session1.Close()
	deadLink.Close()
	st := session1.Stats()
	fmt.Printf("  ...process dies: %d enqueued, %d sent\n\n", st.Enqueued, st.Sent)

	// ---- second life ----
	fmt.Println("life 2: restart with the same WAL; the link is merely bad now")
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.3, DupProb: 0.2, Seed: 2})
	link := ghm.Share(left)
	defer link.Close()
	receiver, err := ghm.NewReceiver(right)
	if err != nil {
		return err
	}
	defer receiver.Close()

	session2, err := ghm.NewSession(ghm.SessionConfig{Dial: link.Dial, WAL: walPath})
	if err != nil {
		return err
	}
	defer session2.Close()

	// For good measure, crash the protocol station mid-drain: the session
	// resubmits whatever the crash wiped.
	go func() {
		time.Sleep(3 * time.Millisecond)
		session2.Crash()
		fmt.Println("  !! station crash mid-drain (protocol memory erased)")
	}()

	done := make(chan error, 1)
	go func() { done <- session2.Flush(ctx) }()
	for i := 1; i <= 6; i++ {
		msg, err := receiver.Recv(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("  delivered %q\n", msg)
	}
	if err := <-done; err != nil {
		return err
	}
	st2 := session2.Stats()
	fmt.Printf("\nrecovered backlog drained: %d sent, %d crash resubmissions\n",
		st2.Sent, st2.Resubmits)
	fmt.Println("every report from life 1 arrived exactly once*, in order")
	fmt.Println("(*at-least-once if a station crash lands mid-message; dedup by id)")
	return nil
}
