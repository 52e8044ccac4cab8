//go:build race

package hierarchy

func init() { raceEnabled = true }
