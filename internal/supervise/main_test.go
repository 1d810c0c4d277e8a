package supervise

import (
	"testing"

	"ghm/internal/testutil"
)

// TestMain arms the goroutine-leak guard for the whole suite: a
// supervisor's run loop restarts stations for as long as it lives, so one
// that outlives its Close fails the package.
func TestMain(m *testing.M) { testutil.Main(m) }
