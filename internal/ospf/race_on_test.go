//go:build race

package ospf

const raceEnabled = true
