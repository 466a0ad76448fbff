//go:build race

package sethash

const raceEnabled = true
