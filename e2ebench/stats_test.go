package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {39, 50}, // under 40 samples: the median alone
		{40, 75}, {99, 75}, // p75 leaves 10 beyond from 40 samples; p90 needs 100
		{100, 90}, {999, 90},
		{1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestTailFallsBackAndSaysSo(t *testing.T) {
	lat := make([]time.Duration, 60)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	got, p, err := tail(lat, 99)
	if err == nil || p != 75 {
		t.Fatalf("60 samples at fixed p99: got p%g, err %v; want p75 and an error", p, err)
	}
	if got != 45*time.Millisecond {
		t.Errorf("p75 of 1..60 ms = %v, want 45ms", got)
	}
	if _, p, err := tail(lat, 75); err != nil || p != 75 {
		t.Errorf("60 samples at fixed p75: got p%g, err %v", p, err)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	var lat []time.Duration
	for w := 0; w < 5; w++ {
		for i := 0; i < 1000; i++ {
			d := time.Millisecond
			if w == 2 && i > 900 {
				d = time.Second // a host stall inside one window
			}
			lat = append(lat, d)
		}
	}
	got := windowed(lat, 1000, func(w []time.Duration) time.Duration {
		d, p, err := tail(w, 99)
		if err != nil || p != 99 {
			t.Errorf("window tail read at p%g: %v", p, err)
		}
		return d
	})
	if got != time.Millisecond {
		t.Errorf("windowed p99 = %v, want 1ms", got)
	}
	// 99 of 5000 samples are slow, so the whole-run p99 is the stall.
	if whole, _, _ := tail(lat, 99); whole != time.Second {
		t.Errorf("whole-run p99 = %v, want 1s", whole)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]time.Duration{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}
