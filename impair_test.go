package ghm_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ghm"
)

// overtakes counts the packets an Impair stage delivered after a packet
// sent later than every copy of them: reorderings no retransmission can
// explain. sent sees what goes into the stage, delivered what comes out.
type overtakes struct {
	mu        sync.Mutex
	n         int            // packets entering the stage so far
	first     map[string]int // packet bytes → index of their first send
	last      map[string]int // packet bytes → index of their latest send
	maxFirst  int            // highest first-send index delivered so far
	overtaken int
}

func (o *overtakes) sent(p []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
	if _, ok := o.first[string(p)]; !ok {
		o.first[string(p)] = o.n
	}
	o.last[string(p)] = o.n
}

func (o *overtakes) delivered(p []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.last[string(p)] < o.maxFirst {
		o.overtaken++
	}
	o.maxFirst = max(o.maxFirst, o.first[string(p)])
}

func (o *overtakes) count() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.overtaken
}

// countingConn reports every packet it sends to note.
type countingConn struct {
	ghm.PacketConn
	note func([]byte)
}

func (c countingConn) Send(p []byte) error {
	c.note(p)
	return c.PacketConn.Send(p)
}

// TestImpairExactlyOnceInOrder runs a Sender/Receiver pair over a perfect
// Pipe whose ends are both wrapped in Impair with loss, duplication and
// reordering, and turns the loss up and blacks the data direction out
// while the stream runs. Delivery must stay exactly once and in order,
// and the data direction must show packets overtaken.
func TestImpairExactlyOnceInOrder(t *testing.T) {
	left, right := ghm.Pipe(ghm.PipeFaults{})
	o := &overtakes{first: map[string]int{}, last: map[string]int{}}
	data := ghm.Impair(countingConn{left, o.delivered}, ghm.PipeFaults{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.5, Seed: 31})
	ctl := ghm.Impair(right, ghm.PipeFaults{Loss: 0.1, DupProb: 0.1, ReorderProb: 0.3, Seed: 32})
	s, err := ghm.NewSender(countingConn{data, o.sent})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r, err := ghm.NewReceiver(ctl, ghm.WithRetryInterval(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := testCtx(t)

	const n = 120
	recvDone := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			m, err := r.Recv(ctx)
			if err != nil {
				recvDone <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if want := fmt.Sprintf("imp-%02d", i); string(m) != want {
				recvDone <- fmt.Errorf("position %d: got %q want %q", i, m, want)
				return
			}
		}
		recvDone <- nil
	}()
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			data.SetLoss(0.3)
		case 2 * n / 3:
			data.SetBlackout(true)
			time.AfterFunc(20*time.Millisecond, func() { data.SetBlackout(false) })
		}
		if err := s.Send(ctx, []byte(fmt.Sprintf("imp-%02d", i))); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatal(err)
	}
	if o.count() == 0 {
		t.Error("no packet was overtaken: Impair did not reorder")
	}
	t.Logf("%d packets overtaken", o.count())
}
