//go:build !race

package aggcache

const raceEnabled = false
