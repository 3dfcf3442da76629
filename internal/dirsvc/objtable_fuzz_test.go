package dirsvc

import (
	"bytes"
	"reflect"
	"testing"

	"dirsvc/internal/codec"
	"dirsvc/internal/codec/codectest"
	"dirsvc/internal/sim"
	"dirsvc/internal/vdisk"
)

// fuzzTableBlocks sizes the admin partition FuzzOpenObjectTable opens:
// the commit block and two table blocks of 16 slots each.
const fuzzTableBlocks = 3

// FuzzOpenObjectTable: table blocks holding arbitrary bytes — torn,
// bit-flipped or from another build — never panic OpenObjectTable and
// the slot decoding under it, whose allocation
// is bounded by the partition's size; and a table that opens, written
// back block by block, opens again to the same entries and stubs, and
// writes back the same bytes. Each image is opened as it is, and again
// with every block's slots sealed for that block, so they reach the slot
// decoders. The seed corpus, in testdata/fuzz/FuzzOpenObjectTable, holds
// an empty table, one with entries and a stub, and slots in an unknown
// state, as sealed blocks and as slot bytes.
func FuzzOpenObjectTable(f *testing.F) {
	const partition = (fuzzTableBlocks - 1) * vdisk.BlockSize
	f.Fuzz(func(t *testing.T, raw []byte) {
		img := make([]byte, partition)
		copy(img, raw)
		openWriteBack(t, img)
		for b := 1; b < fuzzTableBlocks; b++ {
			blk := img[(b-1)*vdisk.BlockSize:]
			codec.Seal(blk[:0], tableMagic, uint64(b), blk[codec.Header:codec.Header+entriesPerBlock*entrySlot])
		}
		openWriteBack(t, img)
	})
}

// openWriteBack opens a table of img's blocks and, when it opens, checks
// that its write-back opens to the same table and writes back the same.
func openWriteBack(t *testing.T, img []byte) {
	const partition = (fuzzTableBlocks - 1) * vdisk.BlockSize
	disk := vdisk.New(sim.FastModel(), fuzzTableBlocks)
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
}
