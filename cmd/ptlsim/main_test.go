package main

import (
	"testing"

	"ptlsim/internal/experiments"
)

// TestCycleBudget: small and bench keep their scale's budget, paper is
// unlimited, and an explicit -maxcycles always wins (0 included).
func TestCycleBudget(t *testing.T) {
	for _, c := range []struct {
		scale   string
		flag    uint64
		flagSet bool
		want    uint64
	}{
		{"small", 0, false, 4_000_000_000},
		{"bench", 0, false, 4_000_000_000},
		{"paper", 0, false, 0},
		{"small", 1000, true, 1000},
		{"bench", 0, true, 0},
		{"paper", 5_000_000_000, true, 5_000_000_000},
	} {
		got := cycleBudget(experiments.Scale(c.scale).MaxCycles, c.flag, c.flagSet)
		if got != c.want {
			t.Errorf("-scale %s, -maxcycles %d (given %v): budget %d, want %d",
				c.scale, c.flag, c.flagSet, got, c.want)
		}
	}
}
