package dirsvc

import (
	"strconv"
	"testing"

	"dirsvc/internal/capability"
)

// benchDir creates a directory holding rows n0..n(rows-1) in RAM mode, as
// both log-backed kinds apply on their critical path.
func benchDir(tb testing.TB, f *applierFixture, rows int) capability.Capability {
	tb.Helper()
	res, err := f.applier.ApplyUpdate(&Request{Op: OpCreateDir, CheckSeed: []byte("bench")}, 1, false)
	if err != nil {
		tb.Fatal(err)
	}
	dir := res.Reply.Cap
	for n := 0; n < rows; n++ {
		req := &Request{Op: OpAppendRow, Dir: dir, Name: "n" + strconv.Itoa(n), Cap: dir, Masks: ownerMasks()}
		if _, err := f.applier.ApplyUpdate(req, uint64(2+n), false); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// applyPair is the Fig. 7 tmp-file pair at the applier: one append and
// the delete that cancels it, each a single update.
func applyPair(tb testing.TB, a *Applier, appendReq, deleteReq *Request, seq uint64) {
	if _, err := a.ApplyUpdate(appendReq, seq, false); err != nil {
		tb.Fatal(err)
	}
	if _, err := a.ApplyUpdate(deleteReq, seq+1, false); err != nil {
		tb.Fatal(err)
	}
}

func pairOn(dir capability.Capability) (appendReq, deleteReq *Request) {
	return &Request{Op: OpAppendRow, Dir: dir, Name: "tmp", Cap: dir, Masks: ownerMasks()},
		&Request{Op: OpDeleteRow, Dir: dir, Name: "tmp"}
}

// BenchmarkApplyPair measures the rerouted hot path of the update-nvram,
// update-wal and mixed-soft workloads: RAM mode, append+delete on a
// 5-row directory.
func BenchmarkApplyPair(b *testing.B) {
	f := newApplier(b)
	appendReq, deleteReq := pairOn(benchDir(b, f, 5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyPair(b, f.applier, appendReq, deleteReq, uint64(100+2*i))
	}
}

// TestApplierPairAllocations guards the pair's allocation count (ROADMAP
// 5c). It is 11 — the two forked images and their row lists, the appended
// row's masks, replies and results — and staging adds nothing to it;
// every allocation staging did add would be paid once per update on each
// of three replicas, in the benchmark's allocs_per_op. (25 while an update
// deep-copied the image it staged in.)
func TestApplierPairAllocations(t *testing.T) {
	f := newApplier(t)
	appendReq, deleteReq := pairOn(benchDir(t, f, 5))
	seq := uint64(100)
	got := testing.AllocsPerRun(200, func() {
		applyPair(t, f.applier, appendReq, deleteReq, seq)
		seq += 2
	})
	if got > 11 {
		t.Fatalf("append+delete pair costs %.0f allocations, want ≤ 11", got)
	}
}

// BenchmarkApplyBatch8 measures a real batch: eight appends to one
// directory, then the eight deletes, each an OpBatch in RAM mode (step
// decode included, as on a replica).
func BenchmarkApplyBatch8(b *testing.B) {
	f := newApplier(b)
	dir := benchDir(b, f, 5)
	var appends, deletes []*Request
	for n := 0; n < 8; n++ {
		name := "tmp" + strconv.Itoa(n)
		appends = append(appends, &Request{Op: OpAppendRow, Dir: dir, Name: name, Cap: dir, Masks: ownerMasks()})
		deletes = append(deletes, &Request{Op: OpDeleteRow, Dir: dir, Name: name})
	}
	appendReq, deleteReq := NewBatchRequest(appends), NewBatchRequest(deletes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyPair(b, f.applier, appendReq, deleteReq, uint64(100+2*i))
	}
}
