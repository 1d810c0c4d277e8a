//go:build race

package testutil

// RaceEnabled reports whether the binary was built with the race
// detector. Allocation budgets above zero are not meaningful there:
// sync.Pool drops a quarter of what is put back, and the instrumentation
// moves values to the heap that otherwise stay on the stack.
const RaceEnabled = true
