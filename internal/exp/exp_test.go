package exp

import "testing"

func TestSeedForDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for cell := 0; cell < 20; cell++ {
		for rep := 0; rep < 20; rep++ {
			s := SeedFor(42, cell, rep)
			if seen[s] {
				t.Fatalf("seed collision at cell=%d rep=%d", cell, rep)
			}
			seen[s] = true
		}
	}
}
