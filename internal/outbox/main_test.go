package outbox

import (
	"testing"

	"ghm/internal/testutil"
)

// TestMain arms the goroutine-leak guard for the whole suite: a queue
// starts its own delivery workers, and Flush a helper that watches its
// context; Close and Flush's return must take every one of them along.
func TestMain(m *testing.M) { testutil.Main(m) }
