//go:build race

package probe

func init() { raceEnabled = true }
