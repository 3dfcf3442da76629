// Package codectest holds the checks every decoder of bytes the program
// did not write is put through: a fuzz target's three properties (no
// panic, allocation bounded by the input's length, decode(encode(x)) = x
// with a stable encoding) and a comparison of encodings with golden
// bytes. Only test files import it.
package codectest

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// AllocBound is what a decode of n input bytes may allocate: the decoded
// value, its lists at twice their length (append growth) and its strings
// and byte slices, each bounded by the bytes that carry it.
func AllocBound(n int) uint64 { return 1024 + 16*uint64(n) }

// Allocated returns the bytes fn allocates, whole process: the least of
// three calls, since the fuzzing worker's own goroutines allocate now and
// then under the measurement, and a decode allocates the same each time.
func Allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// RoundTrip checks one input against a decoder and its encoder: decode
// allocates at most AllocBound(len(in)); and when it accepts in, the
// value's encoding decodes to an equal value that encodes to the same
// bytes. A panic fails the fuzz run that called it.
func RoundTrip[T any](t *testing.T, in []byte, decode func([]byte) (T, error), encode func(T) []byte) {
	t.Helper()
	var v T
	var err error
	if grew := Allocated(func() { v, err = decode(in) }); grew > AllocBound(len(in)) {
		t.Fatalf("decoding %d bytes allocated %d", len(in), grew)
	}
	if err != nil {
		return
	}
	enc := encode(v)
	again, err := decode(enc)
	if err != nil {
		t.Fatalf("decoded %+v, but not its encoding %x: %v", v, enc, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("decoded %+v, then %+v from its encoding", v, again)
	}
	if twice := encode(again); !bytes.Equal(twice, enc) {
		t.Fatalf("encode, decode, encode: %x, then %x", enc, twice)
	}
}

// Fuzz runs RoundTrip on every input of f: the whole of a fuzz target
// whose decoder and encoder are inverses. Its seeds are the committed
// corpus under testdata/fuzz/<target>.
func Fuzz[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte) {
	f.Fuzz(func(t *testing.T, in []byte) { RoundTrip(t, in, decode, encode) })
}

// Golden fails t unless every named encoding equals the bytes recorded
// under its name in file, one "name hex" line each: encodings taken from
// the encoders before a change to them, so the change is shown to keep
// every format byte for byte.
func Golden(t *testing.T, file string, encodings map[string][]byte) {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, hx, ok := strings.Cut(sc.Text(), " ")
		b, err := hex.DecodeString(hx)
		if !ok || err != nil {
			t.Fatalf("%s: bad line %q", file, sc.Text())
		}
		want[name] = b
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, got := range encodings {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no encoding recorded for %s", file, name)
		} else if !bytes.Equal(got, w) {
			t.Errorf("%s: %s encodes to\n%x\nrecorded\n%x", file, name, got, w)
		}
	}
	if len(want) != len(encodings) {
		t.Errorf("%s records %d encodings, the test makes %d", file, len(want), len(encodings))
	}
}
