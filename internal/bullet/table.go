package bullet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"dirsvc/internal/codec"
	"dirsvc/internal/vdisk"
)

// ErrCorruptTable is returned when the on-disk file table cannot be parsed.
var ErrCorruptTable = errors.New("bullet: corrupt file table")

// On-disk file table layout (big endian):
//
//	magic   [4]byte "BLT1"
//	nextObj uint32
//	count   uint32
//	entries count × (object u32, start u32, blocks u32, length u32, secret [6]byte)
var tableMagic = [4]byte{'B', 'L', 'T', '1'}

const entrySize = 4 + 4 + 4 + 4 + 6

// encodeTableLocked serializes the file table. Must hold s.mu. Entries are
// sorted by object number for deterministic images.
func (s *Store) encodeTableLocked() []byte {
	objects := make([]uint32, 0, len(s.files))
	for o := range s.files {
		objects = append(objects, o)
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i] < objects[j] })

	buf := make([]byte, 0, 12+len(objects)*entrySize)
	buf = append(buf, tableMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, s.nextObj)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(objects)))
	for _, o := range objects {
		e := s.files[o]
		buf = binary.BigEndian.AppendUint32(buf, e.object)
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.start))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.blocks))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.length))
		buf = append(buf, e.secret[:]...)
	}
	if len(buf) > tableBlocks*vdisk.BlockSize {
		// The table region is sized for thousands of directories; treat
		// overflow as a hard configuration error surfaced at write time.
		return buf[:tableBlocks*vdisk.BlockSize]
	}
	return buf
}

func decodeTable(raw []byte) (map[uint32]*fileEntry, uint32, error) {
	rd := codec.NewReader(raw)
	if [4]byte(rd.Take(4)) != tableMagic {
		return nil, 0, fmt.Errorf("bad magic: %w", ErrCorruptTable)
	}
	nextObj, count := rd.U32(), rd.Count32(entrySize)
	if rd.Failed() {
		return nil, 0, fmt.Errorf("entry count: %w", ErrCorruptTable)
	}
	files := make(map[uint32]*fileEntry, count)
	for range count {
		e := &fileEntry{object: rd.U32(), start: int(rd.U32()), blocks: int(rd.U32()), length: int(rd.U32())}
		copy(e.secret[:], rd.Take(len(e.secret)))
		files[e.object] = e
	}
	return files, nextObj, nil
}
