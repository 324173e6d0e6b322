//go:build race

package openflow

const raceEnabled = true
