package main

import (
	"errors"
	"reflect"
	"testing"
)

// TestSampleRoundsOrder pins the sampler's schedule: one untimed warm-up
// call per side, then rounds whose first side rotates (ABBA for two
// sides), each sample the side's ns per op.
func TestSampleRoundsOrder(t *testing.T) {
	var calls []string
	mk := func(name string, ns int64) side {
		return measuredSide(func() (int64, error) {
			calls = append(calls, name)
			return ns, nil
		})
	}
	samples, err := sampleRounds(3, 2, mk("a", 10), mk("b", 30), mk("c", 20))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c", // warm-up
		"a", "a", "b", "b", "c", "c", // round 0 starts at a
		"b", "b", "c", "c", "a", "a", // round 1 starts at b
		"c", "c", "a", "a", "b", "b"} // round 2 starts at c
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order %v, want %v", calls, want)
	}
	if want := [][]int64{{10, 10, 10}, {30, 30, 30}, {20, 20, 20}}; !reflect.DeepEqual(samples, want) {
		t.Fatalf("samples %v, want %v", samples, want)
	}

	calls = nil
	if _, err := sampleRounds(2, 1, mk("a", 1), mk("b", 2)); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "a", "b", "b", "a"}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("two sides: call order %v, want ABBA %v", calls, want)
	}
}

func TestSampleRoundsError(t *testing.T) {
	boom := errors.New("boom")
	n := 0
	s := measuredSide(func() (int64, error) {
		if n++; n > 2 {
			return 0, boom
		}
		return 1, nil
	})
	if _, err := sampleRounds(5, 1, s); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the side's error", err)
	}
}

func TestMinPerSide(t *testing.T) {
	got := minPerSide([][]int64{{5, 3, 9}, {7}, {4, 4}})
	if want := []int64{3, 7, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("minPerSide = %v, want %v", got, want)
	}
}
