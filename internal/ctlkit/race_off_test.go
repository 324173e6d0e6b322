//go:build !race

package ctlkit

const raceEnabled = false
