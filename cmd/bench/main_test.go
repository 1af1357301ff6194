package main

import (
	"testing"
	"time"
)

// TestSaturationSchedule pins the sizing rule of the saturation pair:
// arrivals at twice one worker's capacity, targets as multiples of the
// service time, interactive the larger share of every round, and the same
// job count whatever the service time.
func TestSaturationSchedule(t *testing.T) {
	for _, svc := range []time.Duration{100 * time.Millisecond, 400 * time.Millisecond, 3 * time.Second} {
		s := saturationSchedule(svc)
		if s.Service != svc {
			t.Errorf("svc %v: schedule records service time %v", svc, s.Service)
		}
		perRound := s.Background + s.Interactive
		if got, want := float64(perRound)*float64(svc)/float64(s.Gap), 2.0; got != want {
			t.Errorf("svc %v: offered load %.3f× one worker's capacity, want %.0f×", svc, got, want)
		}
		if s.InteractiveTarget%svc != 0 || s.BackgroundTarget%svc != 0 {
			t.Errorf("svc %v: targets %v / %v are not multiples of svc", svc, s.InteractiveTarget, s.BackgroundTarget)
		}
		if s.InteractiveTarget >= s.BackgroundTarget {
			t.Errorf("svc %v: interactive target %v not below background target %v", svc, s.InteractiveTarget, s.BackgroundTarget)
		}
		if s.Interactive <= s.Background {
			t.Errorf("svc %v: %d interactive vs %d background per round: interactive alone must overload the worker", svc, s.Interactive, s.Background)
		}
		if s.offered() < 40 {
			t.Errorf("svc %v: %d jobs offered, too few for 20 good on a side", svc, s.offered())
		}
		if s.offered() != saturationSchedule(time.Second).offered() {
			t.Errorf("svc %v: %d jobs offered, want the same count at every service time", svc, s.offered())
		}
	}
}
