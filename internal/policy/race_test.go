//go:build race

package policy

func init() { raceDetector = true }
