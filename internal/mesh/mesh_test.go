package mesh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func testMesh() *Mesh { return New(hw.Config3()) }

func TestMeshShape(t *testing.T) {
	m := testMesh()
	if m.Cols != 7 || m.Rows != 8 || m.Dies() != 56 {
		t.Fatalf("config3 mesh = %dx%d (%d dies), want 7x8 (56)", m.Cols, m.Rows, m.Dies())
	}
}

func TestHopsAndXYPath(t *testing.T) {
	m := testMesh()
	a, b := DieID{0, 0}, DieID{3, 2}
	if got := m.Hops(a, b); got != 5 {
		t.Errorf("hops = %d, want 5", got)
	}
	ids := m.XYPathIDs(a, b)
	if len(ids) != 5 {
		t.Fatalf("XY path length = %d, want 5", len(ids))
	}
	p := make([]Link, len(ids))
	for i, id := range ids {
		p[i] = m.LinkAt(int(id))
	}
	if p[0].From != a || p[len(p)-1].To != b {
		t.Errorf("path endpoints wrong: %v", p)
	}
	// Links must be contiguous and unit-length, X moves before Y moves.
	for i, l := range p {
		if m.Hops(l.From, l.To) != 1 {
			t.Errorf("link %d not adjacent: %v", i, l)
		}
		if i > 0 && p[i-1].To != l.From {
			t.Errorf("path discontinuous at %d", i)
		}
		if i > 0 && l.From.X != l.To.X && p[i-1].From.Y != p[i-1].To.Y {
			t.Errorf("X move after a Y move at %d", i)
		}
	}
}

func TestShortestPathsEnumeration(t *testing.T) {
	m := testMesh()
	// Straight-line pairs have one shortest path; diagonal pairs have two
	// (XY and YX).
	if got := len(m.ShortestPathIDs(DieID{0, 0}, DieID{4, 0})); got != 1 {
		t.Errorf("straight-line paths = %d, want 1", got)
	}
	paths := m.ShortestPathIDs(DieID{0, 0}, DieID{2, 3})
	if len(paths) != 2 {
		t.Fatalf("diagonal paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		if len(p) != 5 {
			t.Errorf("shortest path length = %d, want 5", len(p))
		}
	}
}

func TestTransferTime(t *testing.T) {
	m := testMesh()
	path := []Link{{DieID{0, 0}, DieID{1, 0}}, {DieID{1, 0}, DieID{2, 0}}, {DieID{2, 0}, DieID{3, 0}}}
	bytes := 4e12
	want := 3*m.LinkLatency + bytes/m.LinkBandwidth
	if got := m.TransferTime(path, bytes); math.Abs(got-want) > 1e-12 {
		t.Errorf("transfer time = %v, want %v", got, want)
	}
	if got := m.TransferTime(nil, bytes); got != 0 {
		t.Errorf("empty path transfer = %v, want 0", got)
	}
}

func TestConflictsGamma(t *testing.T) {
	m := testMesh()
	occupied := m.NewLinkSet()
	for _, id := range m.XYPathIDs(DieID{0, 0}, DieID{3, 0}) {
		occupied.Add(int(id))
	}
	overlap := m.XYPathIDs(DieID{1, 0}, DieID{3, 0})
	if got := occupied.CountIn(overlap); got != 2 {
		t.Errorf("γ = %d, want 2", got)
	}
	disjoint := m.XYPathIDs(DieID{0, 1}, DieID{3, 1})
	if got := occupied.CountIn(disjoint); got != 0 {
		t.Errorf("γ = %d, want 0 for disjoint path", got)
	}
}

func TestLinkFaultDegradesBandwidth(t *testing.T) {
	m := testMesh()
	l := Link{DieID{0, 0}, DieID{1, 0}}
	m.InjectLinkFault(l, 0.5)
	if got := m.EffectiveLinkBandwidth(l); math.Abs(got-0.5*m.LinkBandwidth) > 1 {
		t.Errorf("degraded bandwidth = %g, want half", got)
	}
	m.InjectLinkFault(l, 0.7)
	if got := m.EffectiveLinkBandwidth(l); got != 0 {
		t.Errorf("dead link bandwidth = %g, want 0", got)
	}
	// Reverse direction unaffected.
	if got := m.EffectiveLinkBandwidth(l.Reverse()); got != m.LinkBandwidth {
		t.Errorf("reverse link bandwidth = %g, want full", got)
	}
}

func TestDieFault(t *testing.T) {
	m := testMesh()
	d := DieID{2, 2}
	m.InjectDieFault(d, 0.4)
	if got := m.DieHealth(d); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("die health = %v, want 0.6", got)
	}
	m.InjectDieFault(d, 0.9)
	if !m.DieDead(d) {
		t.Error("die should be dead after full degradation")
	}
	if got := m.EffectiveLinkBandwidth(Link{DieID{1, 2}, d}); got != 0 {
		t.Error("links to a dead die must carry no traffic")
	}
	if len(m.HealthyDies()) != 55 {
		t.Errorf("healthy dies = %d, want 55", len(m.HealthyDies()))
	}
}

func TestRerouteAvoidsDeadLink(t *testing.T) {
	m := testMesh()
	a, b := DieID{0, 0}, DieID{3, 0}
	m.InjectLinkFault(Link{DieID{1, 0}, DieID{2, 0}}, 1.0)
	p := m.ReroutePath(a, b)
	if p == nil {
		t.Fatal("reroute found no path")
	}
	for _, l := range p {
		if m.EffectiveLinkBandwidth(l) <= 0 {
			t.Fatalf("reroute used dead link %v", l)
		}
	}
	// Detour costs two extra hops.
	if len(p) != 5 {
		t.Errorf("detour length = %d, want 5", len(p))
	}
}

func TestRerouteDisconnected(t *testing.T) {
	m := New(hw.WaferConfig{DiesX: 2, DiesY: 1, Die: hw.DieA(), D2DBandwidth: 1e12, WaferEdgeMM: 198})
	m.InjectLinkFault(Link{DieID{0, 0}, DieID{1, 0}}, 1.0)
	if p := m.ReroutePath(DieID{0, 0}, DieID{1, 0}); p != nil {
		t.Fatalf("expected nil path for disconnected dies, got %v", p)
	}
}

func TestAllLinksCount(t *testing.T) {
	m := testMesh()
	// 2 directions × (cols·(rows−1) + rows·(cols−1)).
	want := 2 * (7*7 + 8*6)
	if got := len(m.AllLinks()); got != want {
		t.Errorf("links = %d, want %d", got, want)
	}
}

func TestRandomFaultInjectionRates(t *testing.T) {
	m := testMesh()
	rng := rand.New(rand.NewSource(1))
	m.InjectRandomLinkFaults(rng, 0.2)
	degraded := 0
	for _, l := range m.AllLinks() {
		if m.EffectiveLinkBandwidth(l) < m.LinkBandwidth {
			degraded++
		}
	}
	total := len(m.AllLinks())
	if degraded < total/10 || degraded > total/2 {
		t.Errorf("degraded links = %d of %d, expected around 20%%", degraded, total)
	}
}

func TestMeshSwitchGrouping(t *testing.T) {
	m := New(hw.Config3MeshSwitch())
	if m.Topology != hw.MeshSwitch {
		t.Fatal("topology not mesh-switch")
	}
	if !m.InSameGroup(DieID{0, 0}, DieID{5, 0}) {
		t.Error("same-row dies should share a switch group")
	}
	if m.InSameGroup(DieID{0, 0}, DieID{0, 1}) {
		t.Error("different rows should be in different groups")
	}
}

func TestPathLengthEqualsHopsProperty(t *testing.T) {
	m := testMesh()
	f := func(ax, ay, bx, by uint8) bool {
		a := DieID{int(ax) % m.Cols, int(ay) % m.Rows}
		b := DieID{int(bx) % m.Cols, int(by) % m.Rows}
		for _, p := range m.ShortestPathIDs(a, b) {
			if len(p) != m.Hops(a, b) {
				return false
			}
		}
		return len(m.XYPathIDs(a, b)) == m.Hops(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRerouteNeverUsesDeadResourcesProperty(t *testing.T) {
	f := func(seed int64) bool {
		m := testMesh()
		rng := rand.New(rand.NewSource(seed))
		m.InjectRandomLinkFaults(rng, 0.15)
		m.InjectRandomDieFaults(rng, 0.1)
		a := DieID{rng.Intn(m.Cols), rng.Intn(m.Rows)}
		b := DieID{rng.Intn(m.Cols), rng.Intn(m.Rows)}
		if m.DieDead(a) || m.DieDead(b) {
			return true
		}
		p := m.ReroutePath(a, b)
		if p == nil {
			return true // disconnection is a legal outcome
		}
		for _, l := range p {
			if m.EffectiveLinkBandwidth(l) <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
