package mesh

import (
	"reflect"
	"testing"

	"repro/internal/hw"
)

// TestDieIndexRoundTrip checks DieIndex/DieAt are inverse bijections that
// ascend in canonical DieLess order.
func TestDieIndexRoundTrip(t *testing.T) {
	m := New(hw.Config3())
	var prev DieID
	for i := 0; i < m.Dies(); i++ {
		d := m.DieAt(i)
		if got := m.DieIndex(d); got != i {
			t.Fatalf("DieIndex(DieAt(%d)) = %d", i, got)
		}
		if i > 0 && !DieLess(prev, d) {
			t.Fatalf("die IDs not in DieLess order at %d: %v !< %v", i, prev, d)
		}
		prev = d
	}
	if m.DieIndex(DieID{X: -1, Y: 0}) != -1 || m.DieIndex(DieID{X: m.Cols, Y: 0}) != -1 {
		t.Error("off-mesh dies should index to -1")
	}
}

// TestLinkIndexRoundTrip checks LinkIndex/LinkAt are inverse bijections that
// ascend in canonical LinkLess order and cover every directed mesh link.
func TestLinkIndexRoundTrip(t *testing.T) {
	m := New(hw.Config3())
	want := 2 * (m.Cols*(m.Rows-1) + m.Rows*(m.Cols-1))
	if m.NumLinks() != want {
		t.Fatalf("NumLinks = %d, want %d", m.NumLinks(), want)
	}
	var prev Link
	for i := 0; i < m.NumLinks(); i++ {
		l := m.LinkAt(i)
		if got := m.LinkIndex(l); got != i {
			t.Fatalf("LinkIndex(LinkAt(%d)) = %d", i, got)
		}
		if i > 0 && !LinkLess(prev, l) {
			t.Fatalf("link IDs not in LinkLess order at %d: %v !< %v", i, prev, l)
		}
		prev = l
	}
	seen := map[Link]bool{}
	for _, l := range m.AllLinks() {
		seen[l] = true
		if m.LinkIndex(l) < 0 {
			t.Fatalf("mesh link %v has no dense ID", l)
		}
	}
	if len(seen) != m.NumLinks() {
		t.Fatalf("AllLinks covers %d links, dense table has %d", len(seen), m.NumLinks())
	}
	// Non-unit and off-mesh links have no ID.
	if m.LinkIndex(Link{From: DieID{X: 0, Y: 0}, To: DieID{X: 2, Y: 0}}) != -1 {
		t.Error("non-adjacent link should index to -1")
	}
	if m.LinkIndex(Link{From: DieID{X: -1, Y: 0}, To: DieID{X: 0, Y: 0}}) != -1 {
		t.Error("off-mesh link should index to -1")
	}
}

// TestEffBWMatchesEffectiveLinkBandwidth checks the dense bandwidth table
// tracks fault injection.
func TestEffBWMatchesEffectiveLinkBandwidth(t *testing.T) {
	m := New(hw.Config3())
	l := Link{From: DieID{X: 2, Y: 2}, To: DieID{X: 3, Y: 2}}
	m.InjectLinkFault(l, 0.25)
	m.InjectDieFault(DieID{X: 5, Y: 5}, 1.0)
	for i := 0; i < m.NumLinks(); i++ {
		link := m.LinkAt(i)
		if got, want := m.EffBW(i), m.EffectiveLinkBandwidth(link); got != want {
			t.Fatalf("EffBW(%v) = %v, want %v", link, got, want)
		}
	}
}

// TestSignatureTracksFaults checks the plan-cache signature changes with
// fault state and is stable otherwise.
func TestSignatureTracksFaults(t *testing.T) {
	a, b := New(hw.Config3()), New(hw.Config3())
	if a.Signature() != b.Signature() {
		t.Fatal("identical meshes should share a signature")
	}
	if a.Signature() == New(hw.Config1()).Signature() {
		t.Fatal("different wafer configs should not share a signature")
	}
	b.InjectLinkFault(Link{From: DieID{X: 0, Y: 0}, To: DieID{X: 1, Y: 0}}, 0.5)
	if a.Signature() == b.Signature() {
		t.Fatal("fault injection should change the signature")
	}
}

// TestPathInterningSharedAndAllocationFree checks the routing hot path
// returns shared slices without allocating.
func TestPathInterningSharedAndAllocationFree(t *testing.T) {
	m := New(hw.Config3())
	a, b := DieID{X: 0, Y: 0}, DieID{X: 3, Y: 4}
	p1 := m.XYPath(a, b)
	p2 := m.XYPath(a, b)
	if len(p1) != m.Hops(a, b) || len(p2) != len(p1) {
		t.Fatalf("XYPath length %d, want %d", len(p1), m.Hops(a, b))
	}
	if &p1[0] != &p2[0] {
		t.Error("XYPath should return the interned shared slice")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m.XYPath(a, b)
		_ = m.YXPath(a, b)
		_ = m.ShortestPaths(a, b)
	}); allocs > 0 {
		t.Errorf("interned path lookups allocate %.0f objects per call, want 0", allocs)
	}
}

// TestInternedPathsMatchFreshBuild checks, on every Table II wafer and on
// mesh-switch, that each arena-carved route and ID list equals a freshly
// built one and has cap == len, so an append never reaches its neighbour.
func TestInternedPathsMatchFreshBuild(t *testing.T) {
	for _, w := range append(hw.TableII(), hw.Config3MeshSwitch()) {
		m := New(w)
		for ai := 0; ai < m.Dies(); ai++ {
			for bi := 0; bi < m.Dies(); bi++ {
				a, b := m.DieAt(ai), m.DieAt(bi)
				xy, yx := m.buildXYPath(a, b), m.buildYXPath(a, b)
				sp, spID := [][]Link{xy}, [][]int32{m.buildPathIDs(xy)}
				if a.X != b.X && a.Y != b.Y {
					sp, spID = append(sp, yx), append(spID, m.buildPathIDs(yx))
				}
				got := []any{m.XYPath(a, b), m.YXPath(a, b), m.XYPathIDs(a, b), m.XYPathIDsAt(ai, bi),
					m.ShortestPaths(a, b), m.ShortestPathIDs(a, b), m.ShortestPathIDsAt(ai, bi)}
				want := []any{xy, yx, spID[0], spID[0], sp, spID, spID}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %v→%v: interned %v, want %v", w.Name, a, b, got, want)
				}
				e := m.pathAt(a, b)
				for _, c := range []int{cap(e.xy) - len(e.xy), cap(e.yx) - len(e.yx), cap(e.xyID) - len(e.xyID), cap(e.yxID) - len(e.yxID)} {
					if c != 0 {
						t.Fatalf("%s %v→%v: interned slice has %d spare capacity", w.Name, a, b, c)
					}
				}
			}
		}
	}
}

// TestLinkSet exercises the dense occupied-set bitset.
func TestLinkSet(t *testing.T) {
	m := New(hw.Config3())
	s := m.NewLinkSet()
	path := m.XYPath(DieID{X: 0, Y: 0}, DieID{X: 3, Y: 0})
	m.AddPath(s, path)
	if got := m.PathConflicts(path, s); got != len(path) {
		t.Fatalf("conflicts on own path = %d, want %d", got, len(path))
	}
	disjoint := m.XYPath(DieID{X: 0, Y: 1}, DieID{X: 3, Y: 1})
	if got := m.PathConflicts(disjoint, s); got != 0 {
		t.Fatalf("conflicts on disjoint path = %d, want 0", got)
	}
	overlap := m.XYPath(DieID{X: 1, Y: 0}, DieID{X: 3, Y: 0})
	if got := m.PathConflicts(overlap, s); got != 2 {
		t.Fatalf("conflicts on overlapping path = %d, want 2", got)
	}
	s.Clear()
	if got := m.PathConflicts(path, s); got != 0 {
		t.Fatalf("conflicts after Clear = %d, want 0", got)
	}
	// Ignore off-mesh IDs.
	s.Add(-1)
	if s.Has(-1) {
		t.Error("negative link ID should never be a member")
	}
}

// TestLinkSetDirtyTracking exercises the membership-flip recorder behind
// the incremental placement scorer: only genuine flips — Add of an absent
// ID, Remove of a present ID — land in the dirty mask.
func TestLinkSetDirtyTracking(t *testing.T) {
	m := New(hw.Config3())
	s := m.NewLinkSet()
	dirty := m.NewLinkSet()
	s.TrackDirty(dirty)

	if s.Any() || dirty.Any() {
		t.Fatal("fresh sets should be empty")
	}
	s.Add(5)
	if !s.Has(5) || !dirty.Has(5) {
		t.Fatal("Add of an absent ID must flip membership and mark dirty")
	}
	dirty.Clear()
	s.Add(5) // re-Add: no flip
	if dirty.Any() {
		t.Fatal("re-Add of a member must not mark dirty")
	}
	s.Remove(7) // absent: no flip
	if dirty.Any() {
		t.Fatal("Remove of a non-member must not mark dirty")
	}
	s.Remove(5)
	if s.Has(5) || !dirty.Has(5) {
		t.Fatal("Remove of a member must flip membership and mark dirty")
	}
	// Off-mesh IDs stay ignored under tracking.
	s.Add(-1)
	s.Remove(-1)
	if dirty.Has(-1) {
		t.Fatal("negative IDs must not reach the dirty mask")
	}
	// Words exposes the shared bit storage.
	s.Add(64)
	w := s.Words()
	if len(w) < 2 || w[1]&1 == 0 {
		t.Fatalf("Words()[1] should carry bit 64, got %#x", w)
	}
	// Clear is a scratch reset, not a flip.
	dirty.Clear()
	s.Clear()
	if dirty.Any() {
		t.Fatal("Clear must bypass dirty tracking")
	}
	if s.Any() {
		t.Fatal("Clear must empty the set")
	}
	// Detach.
	s.TrackDirty(nil)
	s.Add(3)
	if dirty.Any() {
		t.Fatal("TrackDirty(nil) must stop recording")
	}
}
