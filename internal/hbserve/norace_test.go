//go:build !race

package hbserve

const raceEnabled = false
