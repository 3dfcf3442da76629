package codec_test

import (
	"encoding/binary"
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/dirdata"
	"dirsvc/internal/dirsvc"
)

// TestCountBombs decodes three short inputs whose counts claim far more
// items than their bytes carry — each once made its decoder allocate
// hundreds of megabytes — and checks that each is refused within
// codectest.AllocBound of its length. The same inputs seed the decoders'
// fuzz corpora.
func TestCountBombs(t *testing.T) {
	// magic, seq, 64 columns of empty names, 2^20 rows: 82 bytes.
	image := append([]byte("ADr1"), make([]byte, 8)...)
	image = append(binary.BigEndian.AppendUint16(image, 64), make([]byte, 64)...)
	image = binary.BigEndian.AppendUint32(image, 1<<20)
	// LogID, FirstIdx, TTL, Resync, 2^20 events: 25 bytes.
	events := binary.BigEndian.AppendUint32(make([]byte, 8+8+4+1), 1<<20)
	// A topology state, its objects and stubs, 2^20 moving objects: 45 bytes.
	shardMap := binary.BigEndian.AppendUint32(nil, dirsvc.TopoStateLen)
	shardMap = binary.BigEndian.AppendUint32(append(shardMap, make([]byte, dirsvc.TopoStateLen+8)...), 1<<20)

	for _, tc := range []struct {
		name   string
		in     []byte
		decode func([]byte) error
	}{
		{"directory image", image, func(b []byte) error { _, err := dirdata.Decode(b); return err }},
		{"event batch", events, func(b []byte) error { _, err := dirsvc.DecodeEventBatch(b); return err }},
		{"shard map", shardMap, func(b []byte) error { _, err := dirsvc.DecodeShardMapInfo(b); return err }},
	} {
		var err error
		grew := codectest.Allocated(func() { err = tc.decode(tc.in) })
		if err == nil {
			t.Errorf("%s: %d bytes claiming 2^20 items decoded", tc.name, len(tc.in))
		}
		if grew > codectest.AllocBound(len(tc.in)) {
			t.Errorf("%s: decoding %d bytes allocated %d, bound %d", tc.name, len(tc.in), grew, codectest.AllocBound(len(tc.in)))
		}
	}
}

// TestReaderFailsForGood checks the reader's contract: a read past the
// end, a length or a count the input cannot hold fails the reader, costs
// no allocation, and leaves every later read zero.
func TestReaderFailsForGood(t *testing.T) {
	in := binary.BigEndian.AppendUint32([]byte{0, 3, 'a', 'b', 'c'}, 1<<30)
	rd := codec.NewReader(in)
	if s := rd.Str(); s != "abc" || rd.Failed() {
		t.Fatalf("Str = %q, failed %v", s, rd.Failed())
	}
	var b []byte
	if n := testing.AllocsPerRun(1, func() { r := rd; b = r.Bytes() }); n != 0 || b != nil {
		t.Fatalf("a 1 GiB length over 0 bytes: %d allocations, %d bytes", int(n), len(b))
	}
	rd = codec.NewReader(in[5:])
	if n := rd.Count32(1); n != 0 || !rd.Failed() {
		t.Fatalf("a count of 2^30 over 0 bytes read as %d, failed %v", n, rd.Failed())
	}
	if rd.U64() != 0 || rd.Str() != "" || rd.Bytes() != nil || rd.Rest() != nil || rd.Done() {
		t.Fatal("a failed reader read a value")
	}
	alias := codec.NewAliasReader([]byte{0, 0, 0, 2, 'x', 'y', 'z'})
	if f := alias.Bytes(); string(f) != "xy" || cap(f) != 2 || string(alias.Rest()) != "z" || !alias.Done() {
		t.Fatalf("alias read %q (cap %d)", f, cap(f))
	}
}
