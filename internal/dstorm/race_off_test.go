//go:build !race

package dstorm

const raceEnabled = false
