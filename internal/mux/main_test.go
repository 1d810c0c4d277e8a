package mux

import (
	"testing"

	"ghm/internal/testutil"
)

// TestMain arms the goroutine-leak guard for the whole suite, so any
// construction-failure or teardown path that strands an engine pump
// fails the run.
func TestMain(m *testing.M) { testutil.Main(m) }
