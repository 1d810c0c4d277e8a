package ghm_test

import (
	"context"
	"fmt"
	"io"
	"time"

	"ghm"
)

// Example demonstrates the basic unidirectional session: reliable,
// ordered, exactly-once messages over a lossy link.
func Example() {
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.3, DupProb: 0.2, Seed: 1})
	sender, _ := ghm.NewSender(left, ghm.WithSeed(1))
	receiver, _ := ghm.NewReceiver(right, ghm.WithSeed(2),
		ghm.WithRetryInterval(time.Millisecond))
	defer sender.Close()
	defer receiver.Close()

	ctx := context.Background()
	go sender.Send(ctx, []byte("hello, hostile network"))

	msg, _ := receiver.Recv(ctx)
	fmt.Println(string(msg))
	// Output: hello, hostile network
}

// ExampleNewPeer shows a full-duplex session: both ends send and receive
// over one link.
func ExampleNewPeer() {
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.2, Seed: 2})
	alice, _ := ghm.NewPeer(left, ghm.RoleA, ghm.WithSeed(3),
		ghm.WithRetryInterval(time.Millisecond))
	bob, _ := ghm.NewPeer(right, ghm.RoleB, ghm.WithSeed(4),
		ghm.WithRetryInterval(time.Millisecond))
	defer alice.Close()
	defer bob.Close()

	ctx := context.Background()
	go func() {
		alice.Send(ctx, []byte("ping"))
	}()
	msg, _ := bob.Recv(ctx)
	bob.Send(ctx, append(msg, []byte(" -> pong")...))

	reply, _ := alice.Recv(ctx)
	fmt.Println(string(reply))
	// Output: ping -> pong
}

// ExampleNewStreamWriter shows the byte-stream adapters: io.Writer in,
// io.Reader out, chunked into confirmed protocol messages.
func ExampleNewStreamWriter() {
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.25, Seed: 3})
	sender, _ := ghm.NewSender(left, ghm.WithSeed(5))
	receiver, _ := ghm.NewReceiver(right, ghm.WithSeed(6),
		ghm.WithRetryInterval(time.Millisecond))
	defer sender.Close()
	defer receiver.Close()

	ctx := context.Background()
	go func() {
		w := ghm.NewStreamWriter(ctx, sender)
		io.WriteString(w, "streams compose ")
		io.WriteString(w, "over messages")
		w.Close()
	}()

	data, _ := io.ReadAll(ghm.NewStreamReader(ctx, receiver))
	fmt.Println(string(data))
	// Output: streams compose over messages
}

// ExampleSender_Crash shows crash behaviour: a crash erases the station's
// memory mid-transfer and the pending Send surfaces the failure, but the
// session recovers immediately.
func ExampleSender_Crash() {
	// A totally silent link keeps the first Send pending forever.
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 1, Seed: 4})
	sender, _ := ghm.NewSender(left, ghm.WithSeed(7))
	receiver, _ := ghm.NewReceiver(right, ghm.WithSeed(8))
	defer sender.Close()
	defer receiver.Close()

	done := make(chan error, 1)
	go func() { done <- sender.Send(context.Background(), []byte("doomed")) }()
	time.Sleep(5 * time.Millisecond)
	sender.Crash()

	fmt.Println(<-done)
	// Output: netlink: station crashed
}

// ExampleNewSession shows the buffering higher layer: enqueue at will,
// messages go out in order with crash resubmission, under a supervisor
// that rebuilds a wedged station.
func ExampleNewSession() {
	left, right := ghm.Pipe(ghm.PipeFaults{Loss: 0.3, Seed: 6})
	link := ghm.Share(left)
	receiver, _ := ghm.NewReceiver(right, ghm.WithSeed(12),
		ghm.WithRetryInterval(time.Millisecond))
	defer link.Close()
	defer receiver.Close()

	session, _ := ghm.NewSession(ghm.SessionConfig{
		Dial:    link.Dial,
		Options: []ghm.Option{ghm.WithSeed(11)},
	})
	defer session.Close()

	session.Enqueue([]byte("first"))
	session.Enqueue([]byte("second"))

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		msg, _ := receiver.Recv(ctx)
		fmt.Println(string(msg))
	}
	session.Flush(ctx)
	// Output:
	// first
	// second
}

// ExampleWithWindow builds a depth-4 station pair: up to four concurrent
// Sends pipeline over one link, and the receiver releases them in
// admission order, so one producer's messages arrive in its order. Both
// ends must use the same depth.
func ExampleWithWindow() {
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 7})
	s, _ := ghm.NewSender(left, ghm.WithWindow(4), ghm.WithSeed(13))
	r, _ := ghm.NewReceiver(right, ghm.WithWindow(4), ghm.WithSeed(14),
		ghm.WithRetryInterval(time.Millisecond))
	defer s.Close()
	defer r.Close()

	ctx := context.Background()
	go func() {
		for i := 1; i <= 3; i++ {
			s.Send(ctx, []byte(fmt.Sprintf("part %d", i)))
		}
	}()
	for i := 0; i < 3; i++ {
		msg, _ := r.Recv(ctx)
		fmt.Println(string(msg))
	}
	// Output:
	// part 1
	// part 2
	// part 3
}

// ExampleWithEpsilon shows tuning the per-message error budget: smaller
// epsilon means longer random strings in every packet.
func ExampleWithEpsilon() {
	left, right := ghm.Pipe(ghm.PipeFaults{Seed: 5})
	sender, _ := ghm.NewSender(left, ghm.WithEpsilon(1.0/(1<<30)), ghm.WithSeed(9))
	receiver, _ := ghm.NewReceiver(right, ghm.WithEpsilon(1.0/(1<<30)), ghm.WithSeed(10),
		ghm.WithRetryInterval(time.Millisecond))
	defer sender.Close()
	defer receiver.Close()

	ctx := context.Background()
	go sender.Send(ctx, []byte("paranoid"))
	msg, _ := receiver.Recv(ctx)
	fmt.Println(string(msg))
	// Output: paranoid
}
