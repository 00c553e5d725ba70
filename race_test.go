//go:build race

package midas

func init() { raceEnabled = true }
