//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops pooled items
// at random, so allocation budgets do not hold under it.
const raceEnabled = true
