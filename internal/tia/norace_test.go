//go:build !race

package tia

const raceEnabled = false
