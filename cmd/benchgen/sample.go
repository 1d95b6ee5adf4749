package main

import "time"

// A side is one timed configuration of a paired benchmark: it performs
// iters calls and returns the nanoseconds they took.
type side func(iters int) (int64, error)

// wallSide times fn's calls with the wall clock around the whole loop.
func wallSide(fn func() error) side {
	return func(iters int) (int64, error) {
		start := time.Now()
		for n := 0; n < iters; n++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Nanoseconds(), nil
	}
}

// measuredSide sums the nanoseconds each call of once reports, for a side
// whose cost is read from somewhere other than the caller's wall clock.
func measuredSide(once func() (int64, error)) side {
	return func(iters int) (int64, error) {
		var total int64
		for n := 0; n < iters; n++ {
			ns, err := once()
			if err != nil {
				return 0, err
			}
			total += ns
		}
		return total, nil
	}
}

// sampleRounds is the paired-timing sampler behind every overhead gate.
// Each side runs once untimed (warming caches and the allocator); then
// every round takes one sample per side, its ns per op over iters calls,
// with the first side rotating each round so no side systematically runs
// first (ABBA order for two sides) and clock drift hits every side alike.
// samples[i][r] is side i's sample in round r; each gate applies its own
// estimator.
func sampleRounds(rounds, iters int, sides ...side) (samples [][]int64, err error) {
	for _, s := range sides {
		if _, err := s(1); err != nil {
			return nil, err
		}
	}
	samples = make([][]int64, len(sides))
	for r := 0; r < rounds; r++ {
		for k := range sides {
			i := (r + k) % len(sides)
			ns, err := sides[i](iters)
			if err != nil {
				return nil, err
			}
			samples[i] = append(samples[i], ns/int64(iters))
		}
	}
	return samples, nil
}

// minPerSide is the floor estimator: each side's fastest sample.
func minPerSide(samples [][]int64) []int64 {
	floors := make([]int64, len(samples))
	for i, ss := range samples {
		floors[i] = 1<<63 - 1
		for _, ns := range ss {
			floors[i] = min(floors[i], ns)
		}
	}
	return floors
}
