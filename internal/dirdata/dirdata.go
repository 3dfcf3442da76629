// Package dirdata implements the directory data model of the Amoeba
// directory service (paper §2).
//
// A directory is a table. Each row holds an ASCII name, the capability
// stored under that name, and one rights mask per column. Columns are
// protection domains: the first column might carry full rights for the
// owner, the second reduced rights for the owner's group, the third
// read-only rights for everyone else. A capability handed out for a
// directory selects a single column; holders of a column capability see
// rows filtered through that column's rights masks.
//
// Directories are stored as immutable Bullet files: every update produces
// a new encoded image with a fresh sequence number (paper §3). The binary
// encoding here is deterministic so that the actively-replicated servers
// produce byte-identical images.
package dirdata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"unsafe"

	"dirsvc/internal/capability"
	"dirsvc/internal/codec"
)

var (
	// ErrNotFound is returned when a named row does not exist.
	ErrNotFound = errors.New("dirdata: name not found")
	// ErrExists is returned when appending a name that is already present.
	ErrExists = errors.New("dirdata: name already exists")
	// ErrBadName is returned for empty or oversized names.
	ErrBadName = errors.New("dirdata: invalid name")
	// ErrColumns is returned when rights masks do not match the column count.
	ErrColumns = errors.New("dirdata: wrong number of column masks")
	// ErrCorrupt is returned when decoding an invalid directory image;
	// it wraps codec.ErrCorrupt.
	ErrCorrupt = fmt.Errorf("dirdata: directory image: %w", codec.ErrCorrupt)
)

// MaxName is the longest permitted row name.
const MaxName = 255

// DefaultColumns are the column names of a standard three-domain
// directory: owner, group, other.
var DefaultColumns = []string{"owner", "group", "other"}

// Row is one (name, capability) pair plus per-column rights masks.
type Row struct {
	Name string
	Cap  capability.Capability
	// ColMasks[i] is the rights mask a holder of column i's directory
	// capability gets on this row's capability.
	ColMasks []capability.Rights
}

// clone returns a deep copy of the row.
func (r Row) clone() Row {
	out := Row{Name: r.Name, Cap: r.Cap, ColMasks: make([]capability.Rights, len(r.ColMasks))}
	copy(out.ColMasks, r.ColMasks)
	return out
}

// Directory is the in-memory form of one directory.
type Directory struct {
	Columns []string
	Rows    []Row
	// Seq is the service-wide update sequence number stamped when this
	// version of the directory was written (paper §3: "the sequence
	// number of the last change").
	Seq uint64
}

// New creates an empty directory with the given columns (DefaultColumns
// when none are given). The directory keeps copies of the names: a
// caller's may point into a message buffer.
func New(columns ...string) *Directory {
	if len(columns) == 0 {
		return &Directory{Columns: slices.Clone(DefaultColumns)}
	}
	cols := make([]string, len(columns))
	for i, c := range columns {
		cols[i] = strings.Clone(c)
	}
	return &Directory{Columns: cols}
}

// Clone returns a deep copy of the directory.
func (d *Directory) Clone() *Directory {
	out := &Directory{
		Columns: make([]string, len(d.Columns)),
		Rows:    make([]Row, 0, len(d.Rows)),
		Seq:     d.Seq,
	}
	copy(out.Columns, d.Columns)
	for _, r := range d.Rows {
		out.Rows = append(out.Rows, r.clone())
	}
	return out
}

// Fork returns a copy of d to stage an update in. It is built in into's
// storage when into is non-nil — an image no one reads any more, whose
// row array the copy reuses — and in fresh storage otherwise. The copy
// has a row list of its own, with room for the row an append adds, but
// shares with d the column names and every row's mask array: no method
// writes into either (Append and Chmod install fresh masks), so whatever
// the fork goes through leaves d as it was — which is what lets readers
// keep using d while an update is staged beside it. Clone is the copy
// for callers that may write into a row.
func (d *Directory) Fork(into *Directory) *Directory {
	if into == nil {
		into = new(Directory)
	}
	rows := into.Rows[:0]
	if cap(rows) <= len(d.Rows) {
		rows = make([]Row, 0, len(d.Rows)+1)
	}
	*into = Directory{Columns: d.Columns, Rows: append(rows, d.Rows...), Seq: d.Seq}
	return into
}

// find returns the index of the named row, or -1.
func (d *Directory) find(name string) int {
	for i := range d.Rows {
		if d.Rows[i].Name == name {
			return i
		}
	}
	return -1
}

// Lookup returns the row stored under name.
func (d *Directory) Lookup(name string) (Row, error) {
	i := d.find(name)
	if i < 0 {
		return Row{}, fmt.Errorf("%q: %w", name, ErrNotFound)
	}
	return d.Rows[i].clone(), nil
}

// Cap returns the capability stored under name, copying nothing: what a
// lookup set answers with.
func (d *Directory) Cap(name string) (capability.Capability, bool) {
	i := d.find(name)
	if i < 0 {
		return capability.Capability{}, false
	}
	return d.Rows[i].Cap, true
}

// Append adds a new row (paper Fig. 2: "Append row"). The number of masks
// must equal the number of columns.
func (d *Directory) Append(name string, cap capability.Capability, masks []capability.Rights) error {
	if err := checkName(name); err != nil {
		return err
	}
	if len(masks) != len(d.Columns) {
		return fmt.Errorf("%d masks for %d columns: %w", len(masks), len(d.Columns), ErrColumns)
	}
	if d.find(name) >= 0 {
		return fmt.Errorf("%q: %w", name, ErrExists)
	}
	d.Rows = append(d.Rows, newRow(name, cap, masks))
	return nil
}

// newRow builds a row that owns its name and masks, both in one
// allocation: the caller's may point into a message buffer.
func newRow(name string, cap capability.Capability, masks []capability.Rights) Row {
	buf := make([]byte, len(masks)+len(name))
	for i, m := range masks {
		buf[i] = byte(m)
	}
	copy(buf[len(masks):], name)
	ms := unsafe.Slice((*capability.Rights)(unsafe.SliceData(buf)), len(masks))
	return Row{Name: unsafe.String(&buf[len(masks)], len(name)), Cap: cap, ColMasks: ms}
}

// Delete removes the named row (paper Fig. 2: "Delete row").
func (d *Directory) Delete(name string) error {
	i := d.find(name)
	if i < 0 {
		return fmt.Errorf("%q: %w", name, ErrNotFound)
	}
	d.Rows = append(d.Rows[:i], d.Rows[i+1:]...)
	return nil
}

// Chmod replaces the column masks of the named row (paper Fig. 2:
// "Chmod row").
func (d *Directory) Chmod(name string, masks []capability.Rights) error {
	if len(masks) != len(d.Columns) {
		return fmt.Errorf("%d masks for %d columns: %w", len(masks), len(d.Columns), ErrColumns)
	}
	i := d.find(name)
	if i < 0 {
		return fmt.Errorf("%q: %w", name, ErrNotFound)
	}
	ms := make([]capability.Rights, len(masks))
	copy(ms, masks)
	d.Rows[i].ColMasks = ms
	return nil
}

// Replace swaps the capability of the named row, returning the previous
// capability. Replace set (paper Fig. 2) applies this to several rows
// indivisibly at the service layer.
func (d *Directory) Replace(name string, cap capability.Capability) (capability.Capability, error) {
	i := d.find(name)
	if i < 0 {
		return capability.Capability{}, fmt.Errorf("%q: %w", name, ErrNotFound)
	}
	old := d.Rows[i].Cap
	d.Rows[i].Cap = cap
	return old, nil
}

// List returns the rows visible through column col, each with its
// capability restricted to that column's mask, sorted by name (paper
// Fig. 2: "List dir"). Rows whose mask is zero in this column are hidden.
func (d *Directory) List(col int) ([]Row, error) {
	if col < 0 || col >= len(d.Columns) {
		return nil, fmt.Errorf("column %d of %d: %w", col, len(d.Columns), ErrColumns)
	}
	var out []Row
	for _, r := range d.Rows {
		mask := r.ColMasks[col]
		if mask == 0 {
			continue
		}
		row := r.clone()
		if restricted, err := capability.Restrict(r.Cap, mask); err == nil {
			row.Cap = restricted
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Names returns all row names in insertion order.
func (d *Directory) Names() []string {
	out := make([]string, len(d.Rows))
	for i, r := range d.Rows {
		out[i] = r.Name
	}
	return out
}

func checkName(name string) error {
	if name == "" || len(name) > MaxName {
		return fmt.Errorf("%q: %w", name, ErrBadName)
	}
	return nil
}

// Encoding: a sealed frame (codec.Seal) whose body is, big endian,
//
//	seq     uint64
//	ncols   uint16
//	cols    ncols × (len uint8, bytes)
//	nrows   uint32
//	rows    nrows × (nameLen uint8, name, cap [16]byte, ncols × mask uint8)
var magic = [4]byte{'A', 'D', 'r', '2'}

// Encode produces the deterministic binary image of the directory, as
// stored in a Bullet file.
func (d *Directory) Encode() []byte {
	size := codec.Header + 8 + 2
	for _, c := range d.Columns {
		size += 1 + len(c)
	}
	size += 4
	for _, r := range d.Rows {
		size += 1 + len(r.Name) + capability.Size + len(d.Columns)
	}
	buf := make([]byte, codec.Header, size)
	buf = binary.BigEndian.AppendUint64(buf, d.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(d.Columns)))
	for _, c := range d.Columns {
		buf = append(buf, uint8(len(c)))
		buf = append(buf, c...)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.Rows)))
	for _, r := range d.Rows {
		buf = append(buf, uint8(len(r.Name)))
		buf = append(buf, r.Name...)
		buf = r.Cap.Encode(buf)
		for _, m := range r.ColMasks {
			buf = append(buf, uint8(m))
		}
	}
	return codec.Seal(buf[:0], magic, 0, buf[codec.Header:])
}

// Decode parses a directory image produced by Encode.
func Decode(buf []byte) (*Directory, error) {
	body, err := codec.Open(buf, magic, 0)
	if err != nil || body == nil || codec.Header+len(body) != len(buf) {
		return nil, ErrCorrupt
	}
	rd := codec.NewReader(body)
	d := &Directory{Seq: rd.U64()}
	ncols := rd.Count16(1)
	if ncols > 64 {
		return nil, fmt.Errorf("%d columns: %w", ncols, ErrCorrupt)
	}
	d.Columns = make([]string, 0, ncols)
	for range ncols {
		d.Columns = append(d.Columns, string(rd.Take(int(rd.U8()))))
	}
	for range rd.Count32(1 + capability.Size + ncols) {
		row := Row{Name: string(rd.Take(int(rd.U8()))), ColMasks: make([]capability.Rights, ncols)}
		row.Cap, _ = capability.Decode(rd.Take(capability.Size)) // Take holds Size bytes, or as many zeros
		for j := range row.ColMasks {
			row.ColMasks[j] = capability.Rights(rd.U8())
		}
		d.Rows = append(d.Rows, row)
	}
	if !rd.Done() {
		return nil, ErrCorrupt
	}
	return d, nil
}
