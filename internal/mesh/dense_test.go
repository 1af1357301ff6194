package mesh

import (
	"slices"
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
	p1 := m.XYPathIDs(a, b)
	p2 := m.XYPathIDs(a, b)
	if len(p1) != m.Hops(a, b) || len(p2) != len(p1) {
		t.Fatalf("XYPathIDs length %d, want %d", len(p1), m.Hops(a, b))
	}
	if &p1[0] != &p2[0] {
		t.Error("XYPathIDs should return the interned shared slice")
	}
	if sp := m.ShortestPathIDs(a, b); &sp[0][0] != &p1[0] {
		t.Error("ShortestPathIDs should lead with the interned XY route")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_ = m.XYPathIDs(a, b)
		_ = m.ShortestPathIDs(a, b)
	}); allocs > 0 {
		t.Errorf("interned route lookups allocate %.0f objects per call, want 0", allocs)
	}
}

// walkRoute is the reference route: the link IDs met by stepping from a to
// b one die at a time, along X first when xFirst is set and along Y first
// otherwise.
func walkRoute(m *Mesh, a, b DieID, xFirst bool) []int32 {
	var ids []int32
	step := func(dx, dy int) {
		next := DieID{X: a.X + dx, Y: a.Y + dy}
		ids = append(ids, int32(m.LinkIndex(Link{From: a, To: next})))
		a = next
	}
	for _, alongX := range []bool{xFirst, !xFirst} {
		for alongX && a.X != b.X {
			step(sign(b.X-a.X), 0)
		}
		for !alongX && a.Y != b.Y {
			step(0, sign(b.Y-a.Y))
		}
	}
	return ids
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// checkRoutesMatchWalk checks, for every ordered die pair, that XYPathIDs
// is the X-first walk and ShortestPathIDs the X-first walk followed, when
// the dies differ in both coordinates, by the Y-first walk.
func checkRoutesMatchWalk(t *testing.T, name string, m *Mesh) {
	t.Helper()
	for ai := 0; ai < m.Dies(); ai++ {
		for bi := 0; bi < m.Dies(); bi++ {
			a, b := m.DieAt(ai), m.DieAt(bi)
			want := [][]int32{walkRoute(m, a, b, true)}
			if a.X != b.X && a.Y != b.Y {
				want = append(want, walkRoute(m, a, b, false))
			}
			if got := m.XYPathIDs(a, b); !slices.Equal(got, want[0]) {
				t.Fatalf("%s %v→%v: XYPathIDs %v, want %v", name, a, b, got, want[0])
			}
			got := m.ShortestPathIDs(a, b)
			if !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
				t.Fatalf("%s %v→%v: ShortestPathIDs %v, want %v", name, a, b, got, want)
			}
		}
	}
}

// TestInternedPathsMatchFreshBuild checks, on every Table II wafer and on
// mesh-switch, that each interned route equals the coordinate walk and has
// cap == len, so an append never reaches its neighbour in the arena.
func TestInternedPathsMatchFreshBuild(t *testing.T) {
	for _, w := range append(hw.TableII(), hw.Config3MeshSwitch()) {
		m := New(w)
		if m.InternedMaskArena() == nil {
			t.Fatalf("%s: routes not interned", w.Name)
		}
		checkRoutesMatchWalk(t, w.Name, m)
		for p, route := range m.routes {
			if cap(route) != len(route) {
				t.Fatalf("%s: route %d has %d spare capacity", w.Name, p, cap(route)-len(route))
			}
		}
	}
}

// TestRoutesPastInterningBound checks a 13×13 wafer, the smallest square
// past maxInternedDies: nothing is interned, and the routes built per call
// equal the coordinate walk for every ordered pair.
func TestRoutesPastInterningBound(t *testing.T) {
	m := New(pastBoundWafer())
	if m.Dies() <= maxInternedDies {
		t.Fatalf("%d dies is within the interning bound %d", m.Dies(), maxInternedDies)
	}
	if m.routes != nil || m.InternedMaskArena() != nil {
		t.Fatal("a mesh past the bound should intern nothing")
	}
	checkRoutesMatchWalk(t, "13x13", m)
}

// pastBoundWafer is a 13×13 wafer of Config3 dies.
func pastBoundWafer() hw.WaferConfig {
	w := hw.Config3()
	w.Name = "13x13"
	w.DiesX, w.DiesY = 13, 13
	return w
}

// TestLinkSet exercises the dense occupied-set bitset.
func TestLinkSet(t *testing.T) {
	m := New(hw.Config3())
	s := m.NewLinkSet()
	path := m.XYPathIDs(DieID{X: 0, Y: 0}, DieID{X: 3, Y: 0})
	for _, id := range path {
		s.Add(int(id))
	}
	for _, id := range path {
		if !s.Has(int(id)) {
			t.Fatalf("link %d added but not a member", id)
		}
	}
	if got := s.CountIn(path); got != len(path) {
		t.Fatalf("conflicts on own path = %d, want %d", got, len(path))
	}
	// Re-adding a member keeps it; an ID in the second word is a member.
	s.Add(int(path[0]))
	s.Add(64)
	if !s.Has(int(path[0])) || !s.Has(64) || s.Has(65) {
		t.Fatal("re-Add or second-word membership wrong")
	}
	s.Clear()
	if got := s.CountIn(path); got != 0 {
		t.Fatalf("conflicts after Clear = %d, want 0", got)
	}
	for id := 0; id < m.NumLinks(); id++ {
		if s.Has(id) {
			t.Fatalf("link %d still a member after Clear", id)
		}
	}
	// Ignore off-mesh IDs.
	s.Add(-1)
	if s.Has(-1) {
		t.Error("negative link ID should never be a member")
	}
}
