package bullet

import (
	"encoding/binary"
	"fmt"
	"sort"

	"dirsvc/internal/codec"
	"dirsvc/internal/vdisk"
)

// On-disk file table: a sealed frame (codec.Seal) whose body is, big
// endian,
//
//	nextObj uint32
//	count   uint32
//	entries count × (object u32, start u32, blocks u32, length u32, secret [6]byte)
var tableMagic = [4]byte{'B', 'L', 'T', '2'}

const entrySize = 4 + 4 + 4 + 4 + 6

// maxFiles is how many entries the tableBlocks region holds.
const maxFiles = (tableBlocks*vdisk.BlockSize - codec.Header - 8) / entrySize

// encodeTableLocked serializes the file table. Must hold s.mu. Entries are
// sorted by object number for deterministic images.
func (s *Store) encodeTableLocked() []byte {
	objects := make([]uint32, 0, len(s.files))
	for o := range s.files {
		objects = append(objects, o)
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i] < objects[j] })

	buf := make([]byte, codec.Header, codec.Header+8+len(objects)*entrySize)
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
	return codec.Seal(buf[:0], tableMagic, 0, buf[codec.Header:])
}

func decodeTable(raw []byte) (map[uint32]*fileEntry, uint32, error) {
	body, err := codec.Open(raw, tableMagic, 0)
	rd := codec.NewReader(body)
	nextObj, count := rd.U32(), rd.Count32(entrySize)
	if err != nil || rd.Failed() {
		return nil, 0, fmt.Errorf("bullet: file table: %w", codec.ErrCorrupt)
	}
	files := make(map[uint32]*fileEntry, count)
	for range count {
		e := &fileEntry{object: rd.U32(), start: int(rd.U32()), blocks: int(rd.U32()), length: int(rd.U32())}
		copy(e.secret[:], rd.Take(len(e.secret)))
		files[e.object] = e
	}
	return files, nextObj, nil
}
