package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Header is the size of a sealed frame's header: magic [4]byte, body
// length u32, CRC-32 u32.
const Header = 4 + 4 + 4

// ErrCorrupt is what Open returns for bytes that are not a frame sealed
// with the magic and generation asked for: torn, bit-flipped, of another
// generation or structure. Callers wrap it with the structure's name.
var ErrCorrupt = errors.New("codec: corrupt sealed record")

// Seal appends to dst a frame holding body: magic, body length, a CRC-32
// of those, gen and body, then body. gen is not stored: a frame opened
// for another generation fails like a torn one. body may already lie
// where the frame puts it, Header bytes past the end of dst within its
// capacity; Seal then only writes the header.
func Seal(dst []byte, magic [4]byte, gen uint64, body []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(append(dst, magic[:]...), uint32(len(body)))
	dst = append(append(dst, 0, 0, 0, 0), body...)
	binary.BigEndian.PutUint32(dst[start+8:], checksum(dst[start:], gen))
	return dst
}

// Open returns the body of the frame at the start of buf, a sub-slice of
// buf capped at its end; bytes past the frame are not read. A buffer of
// zeros, never written, opens as a nil body and no error.
func Open(buf []byte, magic [4]byte, gen uint64) ([]byte, error) {
	if len(buf) < Header || [4]byte(buf[:4]) != magic {
		if len(bytes.TrimLeft(buf, "\x00")) == 0 {
			return nil, nil
		}
		return nil, ErrCorrupt
	}
	n := FrameLen(buf)
	if n > len(buf) || checksum(buf[:n], gen) != binary.BigEndian.Uint32(buf[8:]) {
		return nil, ErrCorrupt
	}
	return buf[Header:n:n], nil
}

// FrameLen returns the bytes, header included, that the frame at the
// start of buf claims: what a reader of a run of frames must hold to open
// the next one.
func FrameLen(buf []byte) int {
	if len(buf) < Header {
		return Header
	}
	return Header + int(binary.BigEndian.Uint32(buf[4:8]))
}

// checksum is the CRC of a frame's magic, length and body, seeded with
// gen folded to 32 bits: distinct seeds give one frame distinct CRCs.
func checksum(frame []byte, gen uint64) uint32 {
	c := crc32.Update(uint32(gen)^uint32(gen>>32), crc32.IEEETable, frame[:8])
	return crc32.Update(c, crc32.IEEETable, frame[Header:])
}
