//go:build !race

package pagestore

const raceEnabled = false
