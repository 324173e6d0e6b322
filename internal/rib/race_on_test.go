//go:build race

package rib

const raceEnabled = true
