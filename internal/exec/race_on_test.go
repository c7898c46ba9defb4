//go:build race

package exec_test

// raceEnabled reports whether the race detector is active; the golden
// digest sweep skips under it (it checks bits, not synchronization, and
// instrumentation makes it take minutes).
const raceEnabled = true
