package clock

import (
	"testing"

	"ghm/internal/testutil"
)

// TestMain arms the goroutine-leak guard for the whole suite: a virtual
// clock runs every event on the goroutine that advances it, and the real
// clock's timers must be stopped by the test that made them.
func TestMain(m *testing.M) { testutil.Main(m) }
