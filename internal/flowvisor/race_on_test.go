//go:build race

package flowvisor

const raceEnabled = true
