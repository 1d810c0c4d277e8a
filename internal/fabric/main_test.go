package fabric

import (
	"testing"

	"ghm/internal/testutil"
)

// TestMain arms the goroutine-leak guard for the whole suite: the fabric
// delivers inside clock events and starts no goroutine of its own, and a
// test that leaves one behind fails the package.
func TestMain(m *testing.M) { testutil.Main(m) }
