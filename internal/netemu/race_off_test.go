//go:build !race

package netemu

const raceEnabled = false
