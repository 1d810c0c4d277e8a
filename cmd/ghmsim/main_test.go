package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGHMClean(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-messages", "20", "-loss", "0.3", "-seed", "2"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"protocol   ghm", "completed=20", "clean"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunStenningCrashViolates(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-protocol", "stenning", "-messages", "40",
		"-crash-t", "15", "-crash-r", "20", "-max-steps", "100000",
	}, &out)
	if err == nil {
		t.Fatalf("stenning under crashes reported clean:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "VIOLATIONS") {
		t.Errorf("output missing violation report:\n%s", out.String())
	}
}

func TestRunABP(t *testing.T) {
	var out strings.Builder
	// FIFO-like channel: ABP's home turf, must be clean.
	err := run([]string{"-protocol", "abp", "-messages", "20", "-loss", "0", "-dup", "0", "-deliver", "1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestRunNaive(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-protocol", "naive", "-naive-bits", "12", "-messages", "10", "-loss", "0.1"}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestRunTraceTail(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-messages", "2", "-trace", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace tail:") {
		t.Errorf("trace tail missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("trace tail has no OK event:\n%s", out.String())
	}
}

func TestRunSilenceAdversary(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-adversary", "silence", "-messages", "1", "-max-steps", "500"}, &out)
	if err != nil {
		t.Fatalf("silence run should be safe (just incomplete): %v", err)
	}
	if !strings.Contains(out.String(), "completed: false") {
		t.Errorf("silence run claimed completion:\n%s", out.String())
	}
}

func TestRunBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-protocol", "bogus"}, &out); err == nil {
		t.Error("unknown protocol accepted")
	}
	if err := run([]string{"-adversary", "bogus"}, &out); err == nil {
		t.Error("unknown adversary accepted")
	}
	if err := run([]string{"-eps", "7"}, &out); err == nil {
		t.Error("invalid epsilon accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	var out strings.Builder
	if err := run([]string{"-messages", "5", "-trace-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "events written to") {
		t.Errorf("trace-out notice missing:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"kind":"ok"`) {
		t.Errorf("trace file missing OK events")
	}
	// Unwritable path surfaces as an error.
	if err := run([]string{"-messages", "1", "-trace-out", "/no/such/dir/x.jsonl"}, &out); err == nil {
		t.Error("unwritable trace-out accepted")
	}
}

func TestRunNetlikeAdversary(t *testing.T) {
	var out strings.Builder
	err := run([]string{
		"-adversary", "netlike", "-latency", "3", "-jitter", "5",
		"-bandwidth", "80", "-loss", "0.25", "-retry-every", "12", "-messages", "25",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "completed: true") {
		t.Errorf("netlike run incomplete:\n%s", out.String())
	}
}

func TestRunNVABP(t *testing.T) {
	var out strings.Builder
	// NVABP on a FIFO-like channel with crashes: its home turf.
	err := run([]string{
		"-protocol", "nvabp", "-messages", "30",
		"-loss", "0", "-dup", "0", "-deliver", "1",
		"-crash-t", "11", "-crash-r", "17",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
}

func TestRunReplayAndGuessfloodAdversaries(t *testing.T) {
	for _, adv := range []string{"replay", "guessflood"} {
		var out strings.Builder
		err := run([]string{"-adversary", adv, "-messages", "10", "-crash-t", "400", "-crash-r", "97", "-max-steps", "300000"}, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", adv, err, out.String())
		}
	}
}
