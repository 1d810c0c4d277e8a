package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run timestamps every call the benchmark can see from outside
// the program: the client's Send/Submit and its return, and every Send and
// Recv on every conn (see tapConn). Timestamps of one sampled message are
// collected in a msgTrace, cut into a chain of spans when the message
// completes, kept in memory, and written out when the run ends.
//
// Stage timestamps of a link message (sender station = node 0, receiver
// station = node 1):
//
//	stSubmit    client calls Sender.Send
//	stFirstOut  first DATA carrying the message is handed to the sender's conn
//	stLastOut   the DATA send that preceded the arrival below
//	stArrive    that DATA is returned by the receiver's conn.Recv
//	stReply     the receiver station hands its CTL to conn.Send
//	stReplyIn   that CTL is returned by the sender's conn.Recv
//	stDone      Sender.Send returns nil
//	stRelease   Receiver.Recv returns the message (off the confirm path)
//
// and of a mesh message (source, one relay, destination):
//
//	stSubmit    client calls Mesh.Submit
//	stFirstOut  first packet carrying the payload leaves the source node
//	stArrive    it is returned by a relay node's conn.Recv
//	stReply     the relay hands it to the next link's conn.Send
//	stReplyIn   it is returned by the destination node's conn.Recv
//	stDone      the client receives it from Mesh.Delivered
const (
	stSubmit = iota
	stFirstOut
	stLastOut
	stArrive
	stReply
	stReplyIn
	stDone
	stRelease
	stCount
)

// segment is one span of a message's chain: it runs from stage from to
// stage to, and parent indexes the segment (or -1, the client span) that
// caused it. Segments with onPath tile the client span, so their
// durations must add up to the confirm latency.
type segment struct {
	name     string
	layer    string
	from, to int
	parent   int
	onPath   bool
}

var linkChain = []segment{
	{"netlink.tx_admit_us", "netlink", stSubmit, stFirstOut, -1, true},
	{"netlink.retry_wait_us", "netlink", stFirstOut, stLastOut, 0, true},
	{"link.flight_data_us", "link", stLastOut, stArrive, 1, true},
	{"netlink.rx_turnaround_us", "netlink", stArrive, stReply, 2, true},
	{"link.flight_ctl_us", "link", stReply, stReplyIn, 3, true},
	{"netlink.tx_complete_us", "netlink", stReplyIn, stDone, 4, true},
	{"netlink.rx_release_us", "netlink", stArrive, stRelease, 2, false},
}

var meshChain = []segment{
	{"relay.src_dispatch_us", "relay", stSubmit, stFirstOut, -1, true},
	{"link.flight_data_us", "link", stFirstOut, stArrive, 0, true},
	{"relay.forward_us", "relay", stArrive, stReply, 1, true},
	{"link.flight_data_us", "link", stReply, stReplyIn, 2, true},
	{"relay.dest_deliver_us", "relay", stReplyIn, stDone, 3, true},
}

// sumTolerance is how far the on-path spans of one message may be from
// its confirm latency before the message counts as unexplained.
const sumTolerance = 0.05

// unexplainedLimit is the share of traced messages that may be
// unexplained before the traced run fails. It is not zero because a lost
// or retried final CTL cannot be tied to its message from outside the
// program; on the lossless workloads the observed share is 0.
const unexplainedLimit = 0.05

type msgTrace struct {
	id uint64
	t  [stCount]int64 // ns since tracer start; 0 = not seen

	// A link message may cross the link several times (a windowed
	// transmitter re-sends DATA on every CTL; crashes and refused challenges
	// force new exchanges). lastOut and arrive describe the crossing in
	// progress; a crossing becomes the message's exchange only when the CTL
	// that answered it reaches the sender.
	lastOut, arriveOut, arrive int64    // arriveOut: lastOut when the crossing arrived
	ctls                       []string // keys this message holds in tracer.ctl
}

// exchange is one DATA crossing and the CTL that answered it.
type exchange struct {
	id                 uint64
	out, arrive, reply int64
}

// explained reports whether the message's on-path spans are all present,
// run forwards, and add up to its confirm latency within sumTolerance.
func (m *msgTrace) explained(chain []segment) bool {
	total := m.t[stDone] - m.t[stSubmit]
	if m.t[stSubmit] == 0 || m.t[stDone] == 0 || total <= 0 {
		return false
	}
	var sum int64
	for _, s := range chain {
		if !s.onPath {
			continue
		}
		if m.t[s.from] == 0 || m.t[s.to] == 0 || m.t[s.to] < m.t[s.from] {
			return false
		}
		sum += m.t[s.to] - m.t[s.from]
	}
	diff := float64(sum - total)
	if diff < 0 {
		diff = -diff
	}
	return diff <= sumTolerance*float64(total)
}

// tracer collects the stage timestamps of sampled messages.
type tracer struct {
	chain []segment
	mesh  bool   // nodes are mesh nodes (meshSrc, relays, meshDst), not the two stations of a link
	every uint64 // a message is sampled when its sequence number % every == 0
	start time.Time

	mu   sync.Mutex
	live map[uint64]*msgTrace
	ctl  map[string]exchange // CTL bytes -> the exchange it closes
	done []msgTrace
}

// maxTraced bounds the finished records kept in memory.
const maxTraced = 200_000

func newTracer(mesh bool, every uint64) *tracer {
	t := &tracer{
		chain: linkChain, mesh: mesh, every: every,
		start: time.Now(),
		live:  make(map[uint64]*msgTrace),
		ctl:   make(map[string]exchange),
	}
	if mesh {
		t.chain = meshChain
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.start)) + 1 }

func (t *tracer) sampled(id uint64) bool {
	_, seq := splitID(id)
	return seq%t.every == 0
}

// begin opens the record of message id as the client submits it.
func (t *tracer) begin(id uint64) {
	if !t.sampled(id) {
		return
	}
	now := t.now()
	t.mu.Lock()
	if _, ok := t.live[id]; !ok { // a resubmission after a crash keeps the first submit time
		m := &msgTrace{id: id}
		m.t[stSubmit] = now
		t.live[id] = m
	}
	t.mu.Unlock()
}

// mark stamps one stage; the earliest stamp is kept.
func (t *tracer) mark(id uint64, stage int) {
	now := t.now()
	t.mu.Lock()
	if m := t.live[id]; m != nil && m.t[stage] == 0 {
		m.t[stage] = now
	}
	t.mu.Unlock()
}

// finish stamps a terminal stage (stDone or stRelease) and retires the
// record once the confirm path is complete. A link message waits for
// stRelease too, which may come after stDone.
func (t *tracer) finish(id uint64, stage int) {
	if !t.sampled(id) {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.live[id]
	if m == nil {
		return
	}
	if m.t[stage] == 0 {
		m.t[stage] = now
	}
	if m.t[stDone] == 0 || (!t.mesh && m.t[stRelease] == 0) {
		return
	}
	t.retire(m)
}

func (t *tracer) retire(m *msgTrace) {
	delete(t.live, m.id)
	for _, c := range m.ctls {
		delete(t.ctl, c)
	}
	if len(t.done) < maxTraced {
		m.ctls = nil
		t.done = append(t.done, *m)
	}
}

// onSend is called by a tapConn for every packet handed to conn.Send.
// node is the station or mesh node that owns the conn; answering is the
// message whose DATA the same conn last returned from Recv (0 = none).
func (t *tracer) onSend(node int, pkt []byte, answering uint64) {
	id, isData := findID(pkt)
	if t.mesh {
		if !isData || !t.sampled(id) {
			return
		}
		switch node {
		case meshSrc:
			t.mark(id, stFirstOut)
		case meshDst:
		default:
			t.mark(id, stReply)
		}
		return
	}
	if isData {
		if node == 0 && t.sampled(id) {
			now := t.now()
			t.mu.Lock()
			if m := t.live[id]; m != nil {
				if m.t[stFirstOut] == 0 {
					m.t[stFirstOut] = now
				}
				m.lastOut = now
			}
			t.mu.Unlock()
		}
		return
	}
	if node == 1 && answering != 0 {
		now := t.now()
		t.mu.Lock()
		if m := t.live[answering]; m != nil && m.arrive != 0 {
			x := exchange{m.id, m.arriveOut, m.arrive, now}
			m.arrive = 0 // one answer per arrival
			t.answer(m, string(pkt), x)
			t.answer(m, ctlStem(pkt), x)
		}
		t.mu.Unlock()
		return
	}
	if node == 1 && len(pkt) > 1 {
		// A CTL the retry timer sent. If it repeats an answer (same bytes up
		// to the retry counter), it can confirm that exchange in the
		// answer's place — when the answer is lost, or overtaken in a
		// jittery link — so it is remembered as the same exchange, replied
		// to now.
		now := t.now()
		t.mu.Lock()
		if x, ok := t.ctl[ctlStem(pkt)]; ok {
			if m := t.live[x.id]; m != nil {
				x.reply = now
				t.answer(m, string(pkt), x)
			}
		}
		t.mu.Unlock()
	}
}

// ctlStem is a CTL packet without its last byte. A CTL is (rho, tau, i)
// with the retry counter i encoded last, in one byte below 128, so the
// retries of one answer share a stem. This is the one place the tracer
// leans on the wire format; if the format changes, retried answers go
// unrecognized and show up as unexplained messages.
func ctlStem(pkt []byte) string {
	if len(pkt) < 2 {
		return ""
	}
	return string(pkt[:len(pkt)-1])
}

// answer remembers that the CTL (or stem) key closes exchange x of m.
func (t *tracer) answer(m *msgTrace, key string, x exchange) {
	if _, dup := t.ctl[key]; !dup {
		m.ctls = append(m.ctls, key)
	}
	t.ctl[key] = x
}

// onRecv is called by a tapConn for every packet conn.Recv returns. It
// returns the sampled message the packet carries to a receiving station
// (0 = none), which the tapConn remembers until its next Recv.
func (t *tracer) onRecv(node int, pkt []byte) uint64 {
	id, isData := findID(pkt)
	if t.mesh {
		if !isData || !t.sampled(id) {
			return 0
		}
		switch node {
		case meshSrc:
		case meshDst:
			t.mark(id, stReplyIn)
		default:
			t.mark(id, stArrive)
		}
		return 0
	}
	if isData {
		if node != 1 || !t.sampled(id) {
			return 0
		}
		now := t.now()
		t.mu.Lock()
		if m := t.live[id]; m != nil {
			m.arrive, m.arriveOut = now, m.lastOut
			if m.t[stArrive] == 0 {
				m.t[stArrive] = now // for stRelease, until an exchange completes
			}
		}
		t.mu.Unlock()
		return id
	}
	if node == 0 {
		now := t.now()
		t.mu.Lock()
		// The last answered exchange to get back before Send returns is
		// the one that confirmed the message.
		if x, ok := t.ctl[string(pkt)]; ok {
			if m := t.live[x.id]; m != nil && m.t[stDone] == 0 {
				m.t[stLastOut], m.t[stArrive], m.t[stReply], m.t[stReplyIn] = x.out, x.arrive, x.reply, now
			}
		}
		t.mu.Unlock()
	}
	return 0
}

// traceSummary is what a traced run reports: the median duration of every
// span name and how many messages the spans explain.
type traceSummary struct {
	P50us       map[string]float64
	Traced      int
	Unexplained int
}

// summarize retires what is still open, checks every message's span sum
// and takes medians over the explained ones.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.live {
		if m.t[stDone] != 0 {
			t.retire(m)
		}
	}
	sum := traceSummary{P50us: make(map[string]float64), Traced: len(t.done)}
	durs := make(map[string][]float64)
	for i := range t.done {
		m := &t.done[i]
		if !m.explained(t.chain) {
			sum.Unexplained++
			continue
		}
		for _, s := range t.chain {
			if m.t[s.from] != 0 && m.t[s.to] >= m.t[s.from] {
				durs[s.name] = append(durs[s.name], float64(m.t[s.to]-m.t[s.from])/1e3)
			}
		}
	}
	for name, d := range durs {
		sum.P50us[name] = median(d)
	}
	return sum
}

// span is the record written to the trace file.
type span struct {
	Trace   uint64 `json:"trace"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"` // 0 = the client span of the same trace; -1 = root
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxWrittenTraces bounds the trace file; the medians use every record.
const maxWrittenTraces = 2000

// write stores the spans of the first maxWrittenTraces messages, by submit
// time, in dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	recs := append([]msgTrace(nil), t.done...)
	t.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].t[stSubmit] < recs[j].t[stSubmit] })
	if len(recs) > maxWrittenTraces {
		recs = recs[:maxWrittenTraces]
	}
	var spans []span
	for i := range recs {
		m := &recs[i]
		root := "client.send"
		if t.mesh {
			root = "client.submit"
		}
		spans = append(spans, span{Trace: m.id, Span: 0, Parent: -1, Name: root, Layer: "client", StartNS: m.t[stSubmit], EndNS: m.t[stDone]})
		for j, s := range t.chain {
			if m.t[s.from] == 0 || m.t[s.to] == 0 {
				continue
			}
			spans = append(spans, span{Trace: m.id, Span: j + 1, Parent: s.parent + 1, Name: s.name, Layer: s.layer, StartNS: m.t[s.from], EndNS: m.t[s.to]})
		}
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Sampled  string `json:"sampled"`
		Spans    []span `json:"spans"`
	}{workload, fmt.Sprintf("1 message in %d, first %d written", t.every, maxWrittenTraces), spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
