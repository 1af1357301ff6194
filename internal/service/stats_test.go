package service

import (
	"fmt"
	"reflect"
	"testing"
)

// statsLeaves collects every leaf field of a Stats value by dotted name
// (nested cache stats included).
func statsLeaves(v reflect.Value, prefix string, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		name := prefix + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			statsLeaves(f, name+".", out)
		} else {
			out[name] = f
		}
	}
}

// TestStatsAddCoversEveryField pins Stats.Add, the fleet sum the router
// serves, field by field: every field of Stats is classified below as summed
// or as per-daemon (left untouched), so a field added to Stats later fails
// here until it is given a side — and Stats.Add a line if it is a sum.
func TestStatsAddCoversEveryField(t *testing.T) {
	summed := []string{
		"JobsSubmitted", "JobsCoalesced", "JobsDone", "JobsFailed", "JobsRejected",
		"JobsExpired", "JobsShed", "JobsEvicted", "SweepsRun",
		"QueueDepth", "JobsInFlight", "QueueInteractive", "QueueSweepLeg",
		"QueueBackground", "QueuePrefetch",
		"HitsDemand", "HitsPrefetch", "PrefetchIssued", "PrefetchCancelled",
		"PrefetchUseful", "TraceLen", "JobsPending", "JobsRunning",
		"SweepsRunning", "SweepsDone", "SweepsFailed", "SweepsEvicted", "SweepsRetained",
		"Backlog", "JobWorkers", "EvalWorkers",
		"CandidateCache.Hits", "CandidateCache.Misses", "CandidateCache.Size",
		"EvalCache.Hits", "EvalCache.Misses", "EvalCache.Size",
	}
	untouched := []string{
		"EstWaitInteractiveMS", "EstWaitBackgroundMS", "Draining",
		"SchemeVersion", "SnapshotPath", "UptimeSeconds",
	}

	// Fill every field of one daemon's stats with a distinct non-zero value.
	var shard Stats
	src := map[string]reflect.Value{}
	statsLeaves(reflect.ValueOf(&shard).Elem(), "", src)
	n := 0
	for name, f := range src {
		n++
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("v%d", n))
		default:
			t.Fatalf("Stats field %s has kind %s this test cannot fill", name, f.Kind())
		}
	}

	// Adding it twice tells a sum (2x) from a copy (1x) and a skip (zero).
	var fleet Stats
	fleet.Add(shard)
	fleet.Add(shard)
	got := map[string]reflect.Value{}
	statsLeaves(reflect.ValueOf(fleet), "", got)

	classified := map[string]bool{}
	for _, name := range summed {
		classified[name] = true
		s, g := src[name], got[name]
		if !s.IsValid() {
			t.Errorf("summed field %s is not a field of Stats", name)
			continue
		}
		var ok bool
		switch s.Kind() {
		case reflect.Int, reflect.Int64:
			ok = g.Int() == 2*s.Int()
		case reflect.Uint64:
			ok = g.Uint() == 2*s.Uint()
		}
		if !ok {
			t.Errorf("Stats.Add: %s = %v after adding %v twice, want the sum", name, g, s)
		}
	}
	for _, name := range untouched {
		classified[name] = true
		g := got[name]
		if !g.IsValid() {
			t.Errorf("untouched field %s is not a field of Stats", name)
			continue
		}
		if !g.IsZero() {
			t.Errorf("Stats.Add touched per-daemon field %s (now %v)", name, g)
		}
	}
	for name := range src {
		if !classified[name] {
			t.Errorf("Stats field %s is neither summed nor untouched: classify it here (and sum it in Stats.Add if it is a counter or gauge)", name)
		}
	}
}
