package main

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E4", "-scale", "0.05", "-seed", "2"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"E4:", "DATA/msg", "[E4 completed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunMultipleMarkdown(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E2,E5", "-scale", "0.05", "-markdown"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "### E2") || !strings.Contains(s, "### E5") {
		t.Errorf("markdown headers missing:\n%s", s)
	}
	if !strings.Contains(s, "|---|") {
		t.Errorf("markdown rules missing:\n%s", s)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E42"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunMetricsFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-run", "E1", "-scale", "0.05", "-metrics"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	i := strings.Index(s, "metrics:\n")
	if i < 0 {
		t.Fatalf("metrics snapshot missing:\n%s", s)
	}
	var snap map[string]interface{}
	if err := json.Unmarshal([]byte(s[i+len("metrics:\n"):]), &snap); err != nil {
		t.Errorf("snapshot is not JSON: %v\n%s", err, s)
	}
}
