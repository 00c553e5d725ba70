//go:build !race

package ires

// raceEnabled: see race.go.
const raceEnabled = false
