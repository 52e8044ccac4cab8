//go:build race

package cover

func init() { raceEnabled = true }
