package faultdir

import (
	"sync"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindGroup:      "group",
		KindGroupNVRAM: "group+nvram",
		KindRPC:        "rpc",
		KindLocal:      "local",
		Kind(0):        "kind(0)",
		Kind(99):       "kind(99)",
	}
	for kind, want := range cases {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

func TestKindServers(t *testing.T) {
	cases := map[Kind]int{
		KindGroup:      3, // triplicated (§3)
		KindGroupNVRAM: 3, // triplicated + NVRAM (§4.1)
		KindRPC:        2, // duplicated (§1)
		KindLocal:      1, // unreplicated baseline
		Kind(99):       1,
	}
	for kind, want := range cases {
		if got := kind.Servers(); got != want {
			t.Errorf("Kind(%d).Servers() = %d, want %d", int(kind), got, want)
		}
	}
}

// TestNewRejectsEngineUnderNVRAM pins the three persistence modes: the
// storage engine goes under KindGroup only.
func TestNewRejectsEngineUnderNVRAM(t *testing.T) {
	c, err := New(KindGroupNVRAM, Options{DiskEngine: true})
	if err == nil {
		c.Close()
		t.Fatal("New(KindGroupNVRAM, DiskEngine) succeeded")
	}
}

// TestNewConcurrently builds four clusters from four goroutines: New is
// public, so its cluster counter must hand every caller its own Service
// name (run under -race).
func TestNewConcurrently(t *testing.T) {
	clusters := make([]*Cluster, 4)
	var wg sync.WaitGroup
	for i := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := New(KindLocal, testOptions())
			if err != nil {
				t.Error(err)
				return
			}
			clusters[i] = c
		}()
	}
	wg.Wait()
	seen := make(map[string]bool)
	for _, c := range clusters {
		if c == nil {
			continue
		}
		defer c.Close()
		if seen[c.Service] {
			t.Errorf("two clusters share the service name %q", c.Service)
		}
		seen[c.Service] = true
	}
}
