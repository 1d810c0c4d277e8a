package trace

import (
	"bytes"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Step: 0, Kind: KindSendMsg, Msg: "m-0"},
		{Step: 1, Kind: KindRetry},
		{Step: 1, Kind: KindSendPkt, Dir: DirRT, PktID: 0, PktLen: 12},
		{Step: 2, Kind: KindDeliverPkt, Dir: DirRT, PktID: 0, PktLen: 12},
		{Step: 2, Kind: KindSendPkt, Dir: DirTR, PktID: 0, PktLen: 30},
		{Step: 3, Kind: KindDeliverPkt, Dir: DirTR, PktID: 0, PktLen: 30},
		{Step: 3, Kind: KindReceiveMsg, Msg: "m-0"},
		{Step: 4, Kind: KindOK},
		{Step: 5, Kind: KindCrashT},
		{Step: 6, Kind: KindCrashR},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	give := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, give); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(give) {
		t.Fatalf("round trip %d events, want %d", len(got), len(give))
	}
	for i := range give {
		if got[i] != give[i] {
			t.Errorf("event %d: got %+v want %+v", i, got[i], give[i])
		}
	}
}

func TestJSONLStableFieldNames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"kind":"send_msg"`, `"kind":"receive_msg"`, `"kind":"ok"`,
		`"kind":"crash_t"`, `"kind":"crash_r"`, `"dir":"tr"`, `"dir":"rt"`,
		`"msg":"m-0"`, `"pktLen":30`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("serialized trace missing %q:\n%s", want, out)
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "\n" + `{"step":1,"kind":"ok"}` + "\n\n" + `{"step":2,"kind":"retry"}` + "\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Kind != KindOK || got[1].Kind != KindRetry {
		t.Fatalf("got %+v", got)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "bad json", give: "{not json}"},
		{name: "unknown kind", give: `{"step":1,"kind":"warp"}`},
		{name: "unknown dir", give: `{"step":1,"kind":"send_pkt","dir":"up"}`},
		{name: "negative slot", give: `{"step":1,"kind":"ok","slot":-1}`},
		{name: "absurd slot", give: `{"step":1,"kind":"ok","slot":1000000000}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tt.give)); err == nil {
				t.Errorf("ReadJSONL(%q) succeeded", tt.give)
			}
		})
	}
}

func TestWriteJSONLUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Event{{Kind: Kind(99)}}); err == nil {
		t.Error("unknown kind serialized")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip: %v, %d events", err, len(got))
	}
}
