package core

import (
	"reflect"
	"testing"

	"dirsvc/internal/dirsvc"
	"dirsvc/internal/lastfail"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

func TestExchangeBlobRoundTrip(t *testing.T) {
	tests := []struct {
		name     string
		mourned  lastfail.Set
		stayedUp bool
	}{
		{name: "empty", mourned: lastfail.NewSet(), stayedUp: false},
		{name: "one", mourned: lastfail.NewSet(2), stayedUp: true},
		{name: "all", mourned: lastfail.NewSet(1, 2, 3), stayedUp: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mourned, stayedUp, err := decodeExchange(encodeExchange(tt.mourned, tt.stayedUp))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if stayedUp != tt.stayedUp {
				t.Fatalf("stayedUp = %v", stayedUp)
			}
			if !reflect.DeepEqual(mourned.Sorted(), tt.mourned.Sorted()) {
				t.Fatalf("mourned = %v, want %v", mourned.Sorted(), tt.mourned.Sorted())
			}
		})
	}
}

func TestExchangeBlobRejectsGarbage(t *testing.T) {
	for _, blob := range [][]byte{nil, {1}, {0, 5, 1}, {0, 1, 1, 1, 9}} {
		if _, _, err := decodeExchange(blob); err == nil {
			t.Fatalf("decodeExchange(%v) succeeded", blob)
		}
	}
}

// TestRecoverySeqZeroAfterInterruptedRecovery covers §3's recovering
// flag: a server whose previous recovery was interrupted must advertise
// sequence number zero so nobody treats its mixed state as current.
func TestRecoverySeqZeroAfterInterruptedRecovery(t *testing.T) {
	model := sim.FastModel()
	disk := vdisk.New(model, 128)
	admin, err := vdisk.NewPartition(disk, 0, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate prior state: commit block with high seq AND the
	// recovering flag set (crash mid-recovery).
	commit := &dirsvc.CommitBlock{Up: []bool{true, true, true}, Seq: 99, Recovering: true}
	if err := commit.Write(admin); err != nil {
		t.Fatal(err)
	}
	table, err := dirsvc.OpenObjectTable(admin)
	if err != nil {
		t.Fatal(err)
	}
	table.SetRAM(2, dirsvc.ObjectEntry{Seq: 120})

	// Reproduce the recovery-seq computation from Server.recover.
	loaded, err := dirsvc.ReadCommitBlock(admin, 3)
	if err != nil {
		t.Fatal(err)
	}
	mySeq := table.MaxSeq()
	if loaded.Seq > mySeq {
		mySeq = loaded.Seq
	}
	if !loaded.Recovering {
		t.Fatal("recovering flag lost")
	}
	if loaded.Recovering {
		mySeq = 0
	}
	if mySeq != 0 {
		t.Fatalf("recovery seq = %d, want 0 for interrupted recovery", mySeq)
	}
}

func TestConfigValidation(t *testing.T) {
	net := sim.NewNetwork(sim.FastModel(), 1)
	stack := newStack(t, net)
	if _, err := NewServer(stack, Config{FrontConfig: dirsvc.FrontConfig{Service: "x", ServerID: 0, Replicas: 3}}); err == nil {
		t.Fatal("accepted server id 0")
	}
	if _, err := NewServer(stack, Config{FrontConfig: dirsvc.FrontConfig{Service: "x", ServerID: 4, Replicas: 3}}); err == nil {
		t.Fatal("accepted server id beyond N")
	}
}
