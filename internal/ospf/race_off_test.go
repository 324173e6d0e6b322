//go:build !race

package ospf

const raceEnabled = false
