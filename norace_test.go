//go:build !race

package veridb

const raceEnabled = false
