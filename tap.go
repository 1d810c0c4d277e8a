package ghm

import (
	"ghm/internal/netlink"
	"ghm/internal/trace"
)

// EventKind classifies a station lifecycle event observed via WithTap.
type EventKind int

// The externally visible station actions a tap observes. They mirror the
// actions of the paper's I/O-automata model: send_msg, OK, receive_msg
// and the two crash actions.
const (
	// EventSendMsg fires when a Sender accepts a message from the caller.
	EventSendMsg EventKind = iota + 1
	// EventOK fires when the Sender's protocol confirms delivery.
	EventOK
	// EventReceiveMsg fires when a Receiver commits a delivery to the
	// higher layer.
	EventReceiveMsg
	// EventCrashSender fires when the transmitting station's memory is
	// erased (Crash, or a cancelled Send).
	EventCrashSender
	// EventCrashReceiver fires when the receiving station's memory is
	// erased.
	EventCrashReceiver
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSendMsg:
		return "send_msg"
	case EventOK:
		return "OK"
	case EventReceiveMsg:
		return "receive_msg"
	case EventCrashSender:
		return "crash^T"
	case EventCrashReceiver:
		return "crash^R"
	default:
		return "Event(?)"
	}
}

// Event is one station lifecycle action, delivered to a WithTap callback
// at the moment the station commits it.
type Event struct {
	Kind EventKind
	// Msg is the message payload for EventSendMsg and EventReceiveMsg.
	Msg []byte
	// Slot is the window slot that performed the action on a windowed
	// station (WithWindow); single-slot stations report 0.
	Slot int
}

// tapToTrace adapts a public tap callback to the stations' internal tap.
// The station lends its own buffer for the duration of the call; the
// public Event owns its Msg, so this — and only this, when a WithTap is
// installed — copies the payload.
func tapToTrace(fn func(Event)) netlink.Tap {
	if fn == nil {
		return nil
	}
	return func(kind trace.Kind, msg []byte, slot int) {
		var k EventKind
		switch kind {
		case trace.KindSendMsg:
			k = EventSendMsg
		case trace.KindOK:
			k = EventOK
		case trace.KindReceiveMsg:
			k = EventReceiveMsg
		case trace.KindCrashT:
			k = EventCrashSender
		case trace.KindCrashR:
			k = EventCrashReceiver
		default:
			return
		}
		fn(Event{Kind: k, Msg: append([]byte{}, msg...), Slot: slot})
	}
}
