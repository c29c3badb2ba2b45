//go:build !race

package livenet

const raceEnabled = false
