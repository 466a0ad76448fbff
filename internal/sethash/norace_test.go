//go:build !race

package sethash

const raceEnabled = false
