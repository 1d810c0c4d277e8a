package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghm/internal/metrics"
)

// chanConn is an in-memory Conn: inbound packets are injected on a
// channel, outbound packets are recorded.
type chanConn struct {
	in     chan []byte
	closed chan struct{}
	once   sync.Once

	mu   sync.Mutex
	sent [][]byte
}

func newChanConn() *chanConn {
	return &chanConn{in: make(chan []byte, 64), closed: make(chan struct{})}
}

func (c *chanConn) Send(p []byte) error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	c.mu.Lock()
	c.sent = append(c.sent, append([]byte(nil), p...))
	c.mu.Unlock()
	return nil
}

func (c *chanConn) Recv() ([]byte, error) {
	select {
	case p := <-c.in:
		return p, nil
	case <-c.closed:
		return nil, ErrClosed
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *chanConn) sentPackets() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.sent...)
}

// inject frames body with id and feeds it to the conn as inbound.
func (c *chanConn) inject(id int, body []byte) {
	p := binary.AppendUvarint(nil, uint64(id))
	c.in <- append(p, body...)
}

func recvOne(t *testing.T, ep *Endpoint) []byte {
	t.Helper()
	type res struct {
		p   []byte
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, err := ep.Recv()
		ch <- res{p, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("Recv: %v", r.err)
		}
		return r.p
	case <-time.After(2 * time.Second):
		t.Fatal("Recv timed out")
		return nil
	}
}

func TestFramedRouting(t *testing.T) {
	conn := newChanConn()
	reg := metrics.New()
	e := New(conn, Config{MaxEndpoints: 4, Metrics: reg})
	defer e.Close()

	ep0, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := e.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, 4} {
		if _, err := e.Endpoint(id); err == nil {
			t.Errorf("Endpoint(%d) accepted with MaxEndpoints 4", id)
		}
	}

	conn.inject(1, []byte("to-one"))
	conn.inject(0, []byte("to-zero"))
	if got := recvOne(t, ep0); string(got) != "to-zero" {
		t.Fatalf("ep0 got %q", got)
	}
	if got := recvOne(t, ep1); string(got) != "to-one" {
		t.Fatalf("ep1 got %q", got)
	}

	// Outbound framing: id prefix plus body, one byte for ids < 128.
	if err := ep1.Send([]byte("out")); err != nil {
		t.Fatal(err)
	}
	sent := conn.sentPackets()
	if len(sent) != 1 || string(sent[0]) != "\x01out" {
		t.Fatalf("sent = %q", sent)
	}
}

func TestRawMode(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{Raw: true, MaxEndpoints: 16, Metrics: metrics.New()})
	defer e.Close()

	// Raw mode forces a single endpoint.
	if _, err := e.Endpoint(1); err == nil {
		t.Fatal("raw engine accepted endpoint 1")
	}
	ep, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	conn.in <- []byte("plain")
	if got := recvOne(t, ep); string(got) != "plain" {
		t.Fatalf("got %q", got)
	}
	if err := ep.Send([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	if sent := conn.sentPackets(); len(sent) != 1 || string(sent[0]) != "reply" {
		t.Fatalf("sent = %q", sent)
	}
}

func waitCounterAtLeast(t *testing.T, c *metrics.Counter, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter = %d, want >= %d", c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDemuxDropAccounting(t *testing.T) {
	conn := newChanConn()
	reg := metrics.New()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: reg})
	defer e.Close()
	dropped := reg.Counter("link.demux_dropped")

	conn.in <- []byte{}                      // unparsable frame
	conn.inject(1, []byte("no-owner"))       // valid id, nothing attached
	conn.in <- binary.AppendUvarint(nil, 99) // id out of range
	waitCounterAtLeast(t, dropped, 3)

	// Packets for a closed endpoint count too.
	ep, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	conn.inject(0, []byte("late"))
	waitCounterAtLeast(t, dropped, 4)
}

// TestOverflowDropAccounting: a pull-mode endpoint's full mailbox sheds
// what does not fit, and every shed packet is counted.
func TestOverflowDropAccounting(t *testing.T) {
	conn := newChanConn()
	reg := metrics.New()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: reg})
	defer e.Close()
	ep, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < mailboxDepth+2; i++ {
		conn.inject(0, []byte("fits-or-spills"))
	}
	overflow := reg.Counter("link.overflow_dropped")
	waitCounterAtLeast(t, overflow, 2)
	if n := mailboxLen(ep); n != mailboxDepth {
		t.Fatalf("mailbox holds %d packets, want %d", n, mailboxDepth)
	}
	if v := overflow.Value(); v != 2 {
		t.Fatalf("link.overflow_dropped = %d, want 2", v)
	}
}

func TestReplaceSemantics(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()

	old, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	conn.inject(0, []byte("routed"))
	if got := recvOne(t, cur); string(got) != "routed" {
		t.Fatalf("current endpoint got %q", got)
	}
	// The superseded endpoint is closed: a station left on it sends
	// nothing.
	if err := old.Send([]byte("stale")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on the superseded endpoint = %v, want ErrClosed", err)
	}
	// Its Close must not detach the successor.
	old.Close()
	conn.inject(0, []byte("after-old-close"))
	if got := recvOne(t, cur); string(got) != "after-old-close" {
		t.Fatalf("current endpoint after stale close got %q", got)
	}
}

func TestEndpointCloseDetaches(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()

	ep, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if _, err := ep.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv on closed endpoint: %v", err)
	}
	if err := ep.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed endpoint: %v", err)
	}
	// The engine survives: a fresh registration works.
	ep2, err := e.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	conn.inject(0, []byte("alive"))
	if got := recvOne(t, ep2); string(got) != "alive" {
		t.Fatalf("got %q", got)
	}
}

func TestEngineCloseUnblocksEndpoints(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	ep, _ := e.Endpoint(0)

	errc := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after engine close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv not unblocked by Engine.Close")
	}
	if _, err := e.Endpoint(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Endpoint after Close: %v", err)
	}
	// Idempotent.
	e.Close()
}

func TestPumpDeathPropagates(t *testing.T) {
	// An external conn kill (not Engine.Close) must still surface to
	// every endpoint: the pump dies on the fatal read error, Dead closes,
	// Recv drains buffered packets then reports closed.
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	conn.inject(0, []byte("buffered"))
	// Let the pump buffer it before the kill.
	if got := recvOne(t, ep); string(got) != "buffered" {
		t.Fatalf("got %q", got)
	}

	conn.Close() // external kill, not via the engine
	select {
	case <-ep.Dead():
	case <-time.After(2 * time.Second):
		t.Fatal("Dead not closed after conn kill")
	}
	if _, err := ep.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after pump death: %v", err)
	}
}

func TestWedge(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	ep.Wedge(true)
	if err := ep.Send([]byte("swallowed")); err != nil {
		t.Fatalf("wedged Send errored: %v", err)
	}
	if sent := conn.sentPackets(); len(sent) != 0 {
		t.Fatalf("wedged send reached conn: %q", sent)
	}
	conn.inject(0, []byte("vanishes"))
	time.Sleep(10 * time.Millisecond)
	select {
	case p := <-ep.in:
		t.Fatalf("wedged endpoint received %q", p)
	default:
	}

	ep.Wedge(false)
	if err := ep.Send([]byte("through")); err != nil {
		t.Fatal(err)
	}
	if sent := conn.sentPackets(); len(sent) != 1 {
		t.Fatalf("unwedged send did not reach conn: %q", sent)
	}
}

func TestSetHandlerDrainsMailbox(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	conn.inject(0, []byte("queued-1"))
	conn.inject(0, []byte("queued-2"))
	// Wait for the pump to mailbox both.
	deadline := time.Now().Add(2 * time.Second)
	for mailboxLen(ep) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("packets never reached the mailbox")
		}
		time.Sleep(time.Millisecond)
	}

	var mu sync.Mutex
	var got []string
	seen := make(chan struct{}, 8)
	ep.SetHandler(func(p []byte) {
		mu.Lock()
		got = append(got, string(p))
		mu.Unlock()
		seen <- struct{}{}
	})
	// Both queued packets drained through the handler...
	<-seen
	<-seen
	// ...and new arrivals go straight to it.
	conn.inject(0, []byte("pushed"))
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never saw the pushed packet")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 || got[0] != "queued-1" || got[1] != "queued-2" || got[2] != "pushed" {
		t.Fatalf("handler saw %q", got)
	}
}

// mailboxLen is how many packets ep's mailbox holds; 0 when it has none.
func mailboxLen(ep *Endpoint) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.in)
}

// hasMailbox reports whether ep's mailbox has been made.
func hasMailbox(ep *Endpoint) bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.in != nil
}

// TestSetHandlerRacingDispatchStrandsNothing: a packet that found no
// handler, and meets SetHandler before it reaches the mailbox, is still
// handled — once, and not while the drain of the packets queued earlier
// is running. The seam holds the pump at the race: it runs SetHandler to
// completion on another goroutine, so the handler is stored and the
// mailbox drained before the packet goes on. Enqueued into the drained
// mailbox, which a push-mode endpoint never reads again, the packet would
// be lost.
func TestSetHandlerRacingDispatchStrandsNothing(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	conn.inject(0, []byte("queued"))
	for deadline := time.Now().Add(2 * time.Second); mailboxLen(ep) < 1; {
		if time.Now().After(deadline) {
			t.Fatal("packet never reached the mailbox")
		}
		time.Sleep(time.Millisecond)
	}

	var (
		mu       sync.Mutex
		counts   = map[string]int{}
		inside   atomic.Int32
		overlaps atomic.Int32
	)
	seen := make(chan struct{}, 8)
	h := func(p []byte) {
		if inside.Add(1) > 1 {
			overlaps.Add(1)
		}
		time.Sleep(time.Millisecond) // widen any overlap
		mu.Lock()
		counts[string(p)]++
		mu.Unlock()
		inside.Add(-1)
		seen <- struct{}{}
	}
	var once sync.Once
	beforeMailbox = func() {
		once.Do(func() {
			set := make(chan struct{})
			go func() {
				ep.SetHandler(h)
				close(set)
			}()
			select {
			case <-set:
			case <-time.After(time.Second): // a SetHandler waiting on the pump
			}
		})
	}
	defer func() { beforeMailbox = nil }()

	conn.inject(0, []byte("raced"))
	conn.inject(0, []byte("pushed"))
	for i := 0; i < 3; i++ {
		select {
		case <-seen:
		case <-time.After(2 * time.Second):
			mu.Lock()
			defer mu.Unlock()
			t.Fatalf("handler saw %v: a packet was stranded", counts)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range []string{"queued", "raced", "pushed"} {
		if counts[p] != 1 {
			t.Errorf("handler saw %q %d times, want once (all: %v)", p, counts[p], counts)
		}
	}
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d handler calls overlapped another", n)
	}
	if n := mailboxLen(ep); n != 0 {
		t.Errorf("%d packets left in the mailbox of a push-mode endpoint", n)
	}
}

// TestPushEndpointHasNoMailbox: an endpoint that sets its handler before
// traffic arrives never makes a mailbox, however many packets it handles.
func TestPushEndpointHasNoMailbox(t *testing.T) {
	conn := newChanConn()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(1)
	if hasMailbox(ep) {
		t.Fatal("a new endpoint has a mailbox")
	}
	const n = 1000
	var handled atomic.Int64
	done := make(chan struct{})
	ep.SetHandler(func([]byte) {
		if handled.Add(1) == n {
			close(done)
		}
	})
	go func() {
		for i := 0; i < n; i++ {
			conn.inject(1, []byte("push"))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("handled %d of %d packets", handled.Load(), n)
	}
	if hasMailbox(ep) {
		t.Errorf("a push-mode endpoint that handled %d packets has a mailbox", n)
	}
}

// TestPullEndpointQueuesBeforeFirstRecv: with no handler and no Recv yet,
// the first packet makes the mailbox; it queues up to mailboxDepth packets
// and counts the rest as overflow, and the first Recv reads them in order.
func TestPullEndpointQueuesBeforeFirstRecv(t *testing.T) {
	conn := newChanConn()
	reg := metrics.New()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: reg})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	for i := 0; i < mailboxDepth+2; i++ {
		conn.inject(0, []byte{byte(i)})
	}
	overflow := reg.Counter("link.overflow_dropped")
	waitCounterAtLeast(t, overflow, 2)
	if n := mailboxLen(ep); n != mailboxDepth {
		t.Fatalf("mailbox holds %d packets, want %d", n, mailboxDepth)
	}
	for i := 0; i < mailboxDepth; i++ {
		if got, want := recvOne(t, ep), []byte{byte(i)}; !bytes.Equal(got, want) {
			t.Fatalf("Recv %d = %q, want %q", i, got, want)
		}
	}
	if v := overflow.Value(); v != 2 {
		t.Errorf("link.overflow_dropped = %d, want 2", v)
	}
}

// flakyConn fails its first reads with a transient error, then serves.
type flakyConn struct {
	*chanConn
	mu    sync.Mutex
	fails int
}

var errTransient = errors.New("transient read fault")

func (c *flakyConn) Recv() ([]byte, error) {
	c.mu.Lock()
	if c.fails > 0 {
		c.fails--
		c.mu.Unlock()
		return nil, errTransient
	}
	c.mu.Unlock()
	return c.chanConn.Recv()
}

func TestTransientReadErrorsRiddenOut(t *testing.T) {
	conn := &flakyConn{chanConn: newChanConn(), fails: 3}
	reg := metrics.New()
	e := New(conn, Config{MaxEndpoints: 2, Metrics: reg})
	defer e.Close()
	ep, _ := e.Endpoint(0)

	conn.inject(0, []byte("survived"))
	if got := recvOne(t, ep); string(got) != "survived" {
		t.Fatalf("got %q", got)
	}
	if v := reg.Counter("link.io_retries").Value(); v != 3 {
		t.Fatalf("link.io_retries = %d, want 3", v)
	}
}

// nullConn swallows sends; Recv blocks until Close.
type nullConn struct{ closed chan struct{} }

func (c *nullConn) Send([]byte) error { return nil }
func (c *nullConn) Recv() ([]byte, error) {
	<-c.closed
	return nil, ErrClosed
}
func (c *nullConn) Close() error {
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}

// TestHotPathAllocs pins the engine's per-packet allocation budget: a
// framed send reuses pooled buffers and dispatch into a handler performs
// no allocation at all. (The pump is asynchronous, so dispatch is
// exercised directly; it runs the identical code path.)
func TestHotPathAllocs(t *testing.T) {
	conn := &nullConn{closed: make(chan struct{})}
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, _ := e.Endpoint(0)
	ep.SetHandler(func(p []byte) {})

	msg := []byte("0123456789abcdef0123456789abcdef")
	ep.Send(msg) // warm the frame pool
	if avg := testing.AllocsPerRun(200, func() {
		if err := ep.Send(msg); err != nil {
			t.Fatal(err)
		}
	}); avg > 0 {
		t.Errorf("Endpoint.Send allocs/op = %v, want 0", avg)
	}

	framed := binary.AppendUvarint(nil, 0)
	framed = append(framed, msg...)
	if avg := testing.AllocsPerRun(200, func() {
		e.dispatch(framed)
	}); avg > 0 {
		t.Errorf("Engine.dispatch allocs/op = %v, want 0", avg)
	}

}

// lendingConn is a Conn that takes the Recv contract at its word: every
// packet is returned in the same buffer, overwritten by the next Recv.
type lendingConn struct {
	*chanConn
	buf []byte
}

func (c *lendingConn) Recv() ([]byte, error) {
	p, err := c.chanConn.Recv()
	if err != nil {
		return nil, err
	}
	c.buf = append(c.buf[:0], p...)
	return c.buf, nil
}

// TestMailboxPacketOutlivesConnBuffer pins the one copy dispatch makes: a
// packet queued in an endpoint's mailbox is read after the pump has gone
// back to the conn, so it must not alias the conn's receive buffer. Each
// packet is read from the mailbox only after the pump has taken two more
// from a conn that reuses one buffer for all of them.
func TestMailboxPacketOutlivesConnBuffer(t *testing.T) {
	conn := &lendingConn{chanConn: newChanConn()}
	e := New(conn, Config{MaxEndpoints: 2, Metrics: metrics.New()})
	defer e.Close()
	ep, err := e.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 8) }
	for i := 0; i < n; i++ {
		conn.inject(1, body(i))
	}
	for i := 0; i < n; i++ {
		// The pump is at least two reads ahead of the mailbox's reader (or
		// has read everything there is).
		for deadline := time.Now().Add(2 * time.Second); mailboxLen(ep) < min(2, n-i); {
			if time.Now().After(deadline) {
				t.Fatalf("pump stalled at packet %d", i)
			}
			time.Sleep(50 * time.Microsecond)
		}
		if got := recvOne(t, ep); string(got) != string(body(i)) {
			t.Fatalf("mailbox packet %d = %x, want %x: it aliases the conn's receive buffer", i, got, body(i))
		}
	}
}
