// Package codec reads fields from bytes the program did not write — group
// messages, state transfer, 2PC and Watch traffic from peers, and after a
// crash every structure read back from disk or NVRAM — and appends the
// length-prefixed forms it reads.
//
// Its one rule is that a malformed input costs no more than its own size:
// a failed read allocates nothing, and a count is handed out only after
// the unread bytes are shown to hold that many items, so a short input
// claiming millions of items sizes no loop and no list.
//
// It also frames every durable structure (Seal, Open), so a torn or
// bit-flipped one, or one of another generation, is refused as ErrCorrupt
// rather than decoded into a plausible wrong value.
package codec

import (
	"bytes"
	"encoding/binary"
	"unsafe"
)

// Reader is a bounds-checked cursor over an input. A read past the end
// fails the reader for good: it and every later read yield zeros, and the
// decoder checks Failed (or Done) once at the end. Strings and byte
// fields are copies of the input, or slices of it for a reader made with
// NewAliasReader.
type Reader struct {
	buf    []byte
	off    int
	failed bool
	alias  bool
}

// NewReader returns a reader whose strings and byte fields are the
// caller's own copies.
func NewReader(buf []byte) Reader { return Reader{buf: buf} }

// NewAliasReader returns a reader whose strings and byte fields point into
// buf, which must then not change while they are in use: a received
// frame, which no one changes (see "Buffer ownership on the wire" in
// ARCHITECTURE.md). A byte field is capped at its own length, so an
// append to it never writes into buf.
func NewAliasReader(buf []byte) Reader { return Reader{buf: buf, alias: true} }

// zeros is what a failed Take returns: never written, and as long as the
// longest fixed-size field a decoder takes.
var zeros [32]byte

// Take returns the next n bytes, a slice of the input, for a fixed-size
// field. When fewer are left it fails the reader and returns zeros, at
// most len(zeros) of them, so a bad length costs no allocation.
func (r *Reader) Take(n int) []byte {
	if r.failed || n < 0 || n > len(r.buf)-r.off {
		r.failed = true
		n = min(max(n, 0), len(zeros))
		return zeros[:n:n]
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.Take(1)[0] }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.Take(2)) }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.Take(4)) }

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.Take(8)) }

// Bool reads one byte, true when it is 1.
func (r *Reader) Bool() bool { return r.U8() == 1 }

// Count8, Count16 and Count32 read a count of that width, of items that
// each take at least size bytes. A count the unread bytes cannot hold
// fails the reader and reads as 0, so it never sizes a loop or a list.
func (r *Reader) Count8(size int) int { return r.count(int(r.U8()), size) }

// Count16 is Count8 for a uint16 count.
func (r *Reader) Count16(size int) int { return r.count(int(r.U16()), size) }

// Count32 is Count8 for a uint32 count.
func (r *Reader) Count32(size int) int { return r.count(int(r.U32()), size) }

func (r *Reader) count(n, size int) int {
	if r.failed || n > (len(r.buf)-r.off)/size {
		r.failed = true
		return 0
	}
	return n
}

// Str reads a string with a uint16 length prefix ("" when the read fails).
func (r *Reader) Str() string {
	b := r.Take(int(r.U16()))
	switch {
	case r.failed || len(b) == 0:
		return ""
	case r.alias:
		return unsafe.String(&b[0], len(b))
	}
	return string(b)
}

// Bytes reads a byte field with a uint32 length prefix: nil when it is
// empty or the read fails.
func (r *Reader) Bytes() []byte {
	b := r.Take(int(r.U32()))
	switch {
	case r.failed || len(b) == 0:
		return nil
	case r.alias:
		return b[:len(b):len(b)]
	}
	return bytes.Clone(b)
}

// Rest consumes and returns the unread bytes, a slice of the input; nil
// when none are left or the reader has failed.
func (r *Reader) Rest() []byte {
	if r.failed || r.off == len(r.buf) {
		return nil
	}
	out := r.buf[r.off:]
	r.off = len(r.buf)
	return out
}

// Failed reports whether a read has failed.
func (r *Reader) Failed() bool { return r.failed }

// Done reports whether every read succeeded and the input is consumed
// whole: the check of a decoder that refuses trailing bytes.
func (r *Reader) Done() bool { return !r.failed && r.off == len(r.buf) }

// AppendStr appends s with the uint16 length prefix Str reads.
func AppendStr(dst []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint16(dst, uint16(len(s))), s...)
}

// AppendBytes appends b with the uint32 length prefix Bytes reads.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(b))), b...)
}

// AppendBool appends v as the one byte Bool reads.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
