//go:build race

package stats

func init() { raceEnabled = true }
