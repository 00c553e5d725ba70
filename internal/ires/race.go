//go:build race

package ires

// raceEnabled is set when the race detector is compiled in: ReleaseSweep
// then poisons the matrix it hands back, so a read through a view kept
// past the release shows up as a NaN cost instead of another sweep's row.
const raceEnabled = true
