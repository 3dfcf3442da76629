package dirsvc

import (
	"bytes"
	"reflect"
	"testing"

	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fuzzTableBlocks sizes the admin partition FuzzOpenObjectTable opens:
// the commit block and two table blocks of 16 slots each.
const fuzzTableBlocks = 3

// FuzzOpenObjectTable: table blocks holding arbitrary bytes — torn,
// bit-flipped or from another build — never panic OpenObjectTable and
// the slot decoders under it (decodeEntry, decodeStub), whose allocation
// is bounded by the partition's size; and a table that opens, written
// back block by block, opens again to the same entries and stubs, and
// writes back the same bytes. The seed corpus, in
// testdata/fuzz/FuzzOpenObjectTable, holds an empty table, one with
// entries and a stub, and slots in an unknown state.
func FuzzOpenObjectTable(f *testing.F) {
	const partition = (fuzzTableBlocks - 1) * vdisk.BlockSize
	f.Fuzz(func(t *testing.T, raw []byte) {
		disk := vdisk.New(sim.FastModel(), fuzzTableBlocks)
		img := make([]byte, partition)
		copy(img, raw)
		if err := disk.WriteRun(1, img); err != nil {
			t.Fatal(err)
		}
		var table *ObjectTable
		var err error
		if grew := codectest.Allocated(func() { table, err = OpenObjectTable(disk) }); grew > codectest.AllocBound(partition) {
			t.Fatalf("opening a %d-byte table allocated %d", partition, grew)
		}
		if err != nil {
			return
		}
		writeBack := func(tb *ObjectTable) []byte {
			all := make([]uint32, 0, tb.max)
			for obj := uint32(1); obj <= tb.max; obj++ {
				all = append(all, obj)
			}
			if err := tb.FlushBlocks(all); err != nil {
				t.Fatal(err)
			}
			out, err := disk.ReadRun(1, partition)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		enc := writeBack(table)
		again, err := OpenObjectTable(disk)
		if err != nil {
			t.Fatalf("opened once, then not its write-back: %v", err)
		}
		if !reflect.DeepEqual(again.All(), table.All()) || !reflect.DeepEqual(again.Stubs(), table.Stubs()) {
			t.Fatalf("opened %v / %v, then %v / %v from its write-back", table.All(), table.Stubs(), again.All(), again.Stubs())
		}
		if twice := writeBack(again); !bytes.Equal(twice, enc) {
			t.Fatalf("write back, open, write back: %x, then %x", enc, twice)
		}
	})
}
