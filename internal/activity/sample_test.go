package activity

import (
	"testing"

	"repro/internal/matrix"
)

// TestSamplePositionsDistinct verifies the sampling-without-replacement
// fix: duplicate positions would double-count lanes and skew the scaled
// Product/Accum toggle estimates.
func TestSamplePositionsDistinct(t *testing.T) {
	cases := []struct{ n, m, samples int }{
		{8, 8, 1}, {8, 8, 63}, {8, 8, 64}, {100, 3, 250},
		{2048, 2048, 512}, {5, 7, 34},
	}
	for _, tc := range cases {
		pos := samplePositions(tc.n, tc.m, tc.samples, SampleSeed)
		if len(pos) != tc.samples {
			t.Fatalf("(%d,%d,%d): got %d positions", tc.n, tc.m, tc.samples, len(pos))
		}
		seen := make(map[[2]int]bool, len(pos))
		for _, p := range pos {
			if p[0] < 0 || p[0] >= tc.n || p[1] < 0 || p[1] >= tc.m {
				t.Fatalf("(%d,%d,%d): position %v out of range", tc.n, tc.m, tc.samples, p)
			}
			if seen[p] {
				t.Fatalf("(%d,%d,%d): duplicate position %v", tc.n, tc.m, tc.samples, p)
			}
			seen[p] = true
		}
	}
}

func TestSamplePositionsDeterministic(t *testing.T) {
	a := samplePositions(64, 64, 100, 7)
	b := samplePositions(64, 64, 100, 7)
	c := samplePositions(64, 64, 100, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical positions")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different samples")
	}
}

// BenchmarkActivity times a full Analyze per datatype at a fixed
// reduced scale — the per-job analysis cost of a figure campaign.
func BenchmarkActivity(b *testing.B) {
	for _, dt := range matrix.ExtendedDTypes {
		b.Run(dt.String(), func(b *testing.B) {
			p := gaussianProblem(dt, 256, 256, 256, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(p, Config{SampleOutputs: 128, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
