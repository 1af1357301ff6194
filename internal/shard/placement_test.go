package shard

import (
	"fmt"
	"testing"

	"repro/internal/search"
)

// TestPlacementBalancedRows pins the greedy guarantee: every recovery row is
// flat to within one bucket (the greedy bound), rows account for the whole
// bucket space, and the variance never exceeds the pure-rendezvous baseline.
func TestPlacementBalancedRows(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("10.0.0.%d:8791", i+1)
		}
		p := NewPlacement(addrs, 0)
		rep := p.Report()
		if rep.Buckets != DefaultBuckets || len(rep.Rows) != n {
			t.Fatalf("n=%d: report has %d buckets, %d rows", n, rep.Buckets, len(rep.Rows))
		}
		if !rep.WithinBound || rep.MaxSpread > 1 {
			t.Errorf("n=%d: greedy placement out of bound: spread=%d within=%v",
				n, rep.MaxSpread, rep.WithinBound)
		}
		for i, row := range rep.Rows {
			if row[i] != 0 {
				t.Errorf("n=%d: shard %d inherits %d of its own buckets", n, i, row[i])
			}
			sum := 0
			for _, v := range row {
				sum += v
			}
			if sum != rep.Buckets {
				t.Errorf("n=%d: row %d sums to %d, want %d", n, i, sum, rep.Buckets)
			}
		}
		if rep.Variance > rep.BaselineVariance {
			t.Errorf("n=%d: greedy variance %.3f exceeds rendezvous baseline %.3f",
				n, rep.Variance, rep.BaselineVariance)
		}
	}
}

// TestPlacementOrderIndependent checks the table is a function of the
// address set, not the listing order: two routers with shuffled -shards
// flags must agree on every backup.
func TestPlacementOrderIndependent(t *testing.T) {
	a := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"}
	b := []string{"10.0.0.3:1", "10.0.0.1:1", "10.0.0.4:1", "10.0.0.2:1"}
	pa, pb := NewPlacement(a, 0), NewPlacement(b, 0)
	for i := 0; i < 200; i++ {
		fp := fmt.Sprintf("m=Llama2-30B|c=config2|seed=%d", i)
		primary := a[search.ShardOwner(fp, a)]
		ba, oka := pa.Backup(fp, primary)
		bb, okb := pb.Backup(fp, primary)
		if !oka || !okb || ba != bb {
			t.Fatalf("fp %d: backups disagree across listing orders: %q vs %q", i, ba, bb)
		}
		if ba == primary {
			t.Fatalf("fp %d: backup equals primary %q", i, primary)
		}
	}
	if _, ok := pa.Backup("fp", "10.9.9.9:1"); ok {
		t.Error("Backup resolved a primary outside the membership")
	}
	if _, ok := NewPlacement([]string{"10.0.0.1:1"}, 0).Backup("fp", "10.0.0.1:1"); ok {
		t.Error("single-shard placement produced a backup")
	}
}

// TestPlacementInheritors checks the drain/failure push-target set: the
// per-survivor bucket counts of a victim's row, covering the whole space.
func TestPlacementInheritors(t *testing.T) {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	p := NewPlacement(addrs, 0)
	inh := p.Inheritors(addrs[1])
	if len(inh) != 2 {
		t.Fatalf("3-shard fleet: victim has %d inheritors, want 2 (balanced)", len(inh))
	}
	sum := 0
	for addr, v := range inh {
		if addr == addrs[1] {
			t.Error("victim inherits from itself")
		}
		sum += v
	}
	if sum != DefaultBuckets {
		t.Errorf("inherited buckets sum to %d, want %d", sum, DefaultBuckets)
	}
	if p.Inheritors("10.9.9.9:1") != nil {
		t.Error("Inheritors resolved an address outside the membership")
	}
}

// TestPickReplicasChain pins the replica-set contract: the head is the
// rendezvous owner while healthy, the second replica is the greedy backup,
// failing the primary promotes exactly that backup (in-band walk and
// health-exclusion re-pick agree), and Remove rebuilds the placement.
func TestPickReplicasChain(t *testing.T) {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1"}
	m := NewMap(addrs, Options{Replicas: 2})
	defer m.Close()

	for i := 0; i < 100; i++ {
		fp := fmt.Sprintf("fp-%d", i)
		reps, err := m.PickReplicas(fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(reps) != 2 {
			t.Fatalf("fp %d: replica set size %d, want 2", i, len(reps))
		}
		if want := addrs[search.ShardOwner(fp, addrs)]; reps[0].Addr != want {
			t.Fatalf("fp %d: primary %s, rendezvous owner %s", i, reps[0].Addr, want)
		}
		backup, ok := m.Placement().Backup(fp, reps[0].Addr)
		if !ok || reps[1].Addr != backup {
			t.Fatalf("fp %d: second replica %s, greedy backup %s", i, reps[1].Addr, backup)
		}

		// Health exclusion of the primary lands Pick on the same backup the
		// in-band walk would use — the two failover paths agree.
		reps[0].MarkFailed(fmt.Errorf("connection refused"))
		b, err := pick(m, fp)
		if err != nil {
			t.Fatal(err)
		}
		if b.Addr != backup {
			t.Fatalf("fp %d: excluded-primary pick %s, want greedy backup %s", i, b.Addr, backup)
		}
		reps[0].mu.Lock()
		reps[0].healthy = true
		reps[0].mu.Unlock()
	}

	rep := m.RecoveryReport()
	if rep.Replicas != 2 || !rep.WithinBound {
		t.Errorf("recovery report = R%d within=%v, want R2 within bound", rep.Replicas, rep.WithinBound)
	}

	// Remove rebuilds placement over the survivors.
	if _, err := m.Remove(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Remove(addrs[2]); err == nil {
		t.Error("double remove succeeded")
	}
	if got := len(m.Backends()); got != 2 {
		t.Fatalf("backends after remove = %d, want 2", got)
	}
	for i := 0; i < 50; i++ {
		reps, err := m.PickReplicas(fmt.Sprintf("fp-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range reps {
			if b.Addr == addrs[2] {
				t.Fatal("removed shard still in a replica set")
			}
		}
	}
}
