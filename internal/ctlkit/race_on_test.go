//go:build race

package ctlkit

const raceEnabled = true
