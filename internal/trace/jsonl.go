package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// jsonEvent is the serialized form of an Event. Field names are stable:
// saved traces are an interchange format between runs and tools.
type jsonEvent struct {
	Step   int    `json:"step"`
	Kind   string `json:"kind"`
	Dir    string `json:"dir,omitempty"`
	PktID  int64  `json:"pktId,omitempty"`
	PktLen int    `json:"pktLen,omitempty"`
	Msg    string `json:"msg,omitempty"`
	Slot   int    `json:"slot,omitempty"`
}

// maxSlot bounds the window slot a saved trace may name. Stations stop at
// core.MaxWindow (64); the checker keeps its per-slot state in a slice
// indexed by slot, so a file must not be able to ask for a billion of them.
const maxSlot = 1 << 10

var kindToJSON = map[Kind]string{
	KindSendMsg:    "send_msg",
	KindOK:         "ok",
	KindReceiveMsg: "receive_msg",
	KindCrashT:     "crash_t",
	KindCrashR:     "crash_r",
	KindSendPkt:    "send_pkt",
	KindDeliverPkt: "deliver_pkt",
	KindRetry:      "retry",
}

var jsonToKind = invert(kindToJSON)

var dirToJSON = map[Dir]string{
	DirTR: "tr",
	DirRT: "rt",
}

var jsonToDir = invert(dirToJSON)

func invert[K comparable, V comparable](m map[K]V) map[V]K {
	out := make(map[V]K, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// WriteJSONL writes one JSON object per line for each event.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range events {
		kind, ok := kindToJSON[e.Kind]
		if !ok {
			return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
		je := jsonEvent{Step: e.Step, Kind: kind, Msg: e.Msg, Slot: e.Slot}
		if e.Kind == KindSendPkt || e.Kind == KindDeliverPkt {
			je.Dir = dirToJSON[e.Dir]
			je.PktID = e.PktID
			je.PktLen = e.PktLen
		}
		if err := enc.Encode(je); err != nil {
			return fmt.Errorf("trace: encode event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		kind, ok := jsonToKind[je.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", line, je.Kind)
		}
		if je.Slot < 0 || je.Slot >= maxSlot {
			return nil, fmt.Errorf("trace: line %d: slot %d out of range [0, %d)", line, je.Slot, maxSlot)
		}
		e := Event{Step: je.Step, Kind: kind, Msg: je.Msg, PktID: je.PktID, PktLen: je.PktLen, Slot: je.Slot}
		if je.Dir != "" {
			d, ok := jsonToDir[je.Dir]
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown dir %q", line, je.Dir)
			}
			e.Dir = d
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return events, nil
}
