//go:build !race

package testutil

// RaceEnabled reports whether the binary was built with the race
// detector; see race.go.
const RaceEnabled = false
