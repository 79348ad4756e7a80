//go:build !race

package exact

// raceEnabled mirrors the heuristics package guard. Under the race
// detector sync.Pool drops entries at random, so allocation counts are
// not asserted and pool-reuse checks retry.
const raceEnabled = false
