package dirdata

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dirsvc/internal/capability"
)

func mkCap(obj uint32) capability.Capability {
	return capability.Mint(capability.PortFromString("bullet"), obj, capability.NewSecret([]byte{byte(obj)}))
}

func threeMasks(m capability.Rights) []capability.Rights {
	return []capability.Rights{capability.AllRights, m, capability.RightRead}
}

func TestNewDefaults(t *testing.T) {
	d := New()
	if !reflect.DeepEqual(d.Columns, DefaultColumns) {
		t.Fatalf("columns = %v", d.Columns)
	}
	if len(d.Rows) != 0 || d.Seq != 0 {
		t.Fatal("new directory not empty")
	}
}

func TestAppendLookupDelete(t *testing.T) {
	d := New()
	if err := d.Append("tmp", mkCap(1), threeMasks(capability.RightRead)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	row, err := d.Lookup("tmp")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if row.Cap != mkCap(1) {
		t.Fatalf("cap = %v", row.Cap)
	}
	if err := d.Delete("tmp"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := d.Lookup("tmp"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Lookup after delete: %v", err)
	}
}

func TestAppendErrors(t *testing.T) {
	d := New()
	masks := threeMasks(capability.RightRead)
	tests := []struct {
		name    string
		rowName string
		masks   []capability.Rights
		setup   func()
		wantErr error
	}{
		{name: "empty name", rowName: "", masks: masks, wantErr: ErrBadName},
		{name: "long name", rowName: string(bytes.Repeat([]byte("x"), MaxName+1)), masks: masks, wantErr: ErrBadName},
		{name: "mask count", rowName: "a", masks: masks[:2], wantErr: ErrColumns},
		{
			name: "duplicate", rowName: "dup", masks: masks, wantErr: ErrExists,
			setup: func() { _ = d.Append("dup", mkCap(9), masks) },
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.setup != nil {
				tt.setup()
			}
			if err := d.Append(tt.rowName, mkCap(1), tt.masks); !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDeleteMissing(t *testing.T) {
	d := New()
	if err := d.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestChmod(t *testing.T) {
	d := New()
	if err := d.Append("f", mkCap(1), threeMasks(capability.RightRead)); err != nil {
		t.Fatal(err)
	}
	newMasks := threeMasks(capability.RightRead | capability.RightWrite)
	if err := d.Chmod("f", newMasks); err != nil {
		t.Fatalf("Chmod: %v", err)
	}
	row, _ := d.Lookup("f")
	if !reflect.DeepEqual(row.ColMasks, newMasks) {
		t.Fatalf("masks = %v", row.ColMasks)
	}
	if err := d.Chmod("ghost", newMasks); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Chmod missing: %v", err)
	}
	if err := d.Chmod("f", newMasks[:1]); !errors.Is(err, ErrColumns) {
		t.Fatalf("Chmod bad masks: %v", err)
	}
}

func TestReplaceReturnsOld(t *testing.T) {
	d := New()
	_ = d.Append("f", mkCap(1), threeMasks(capability.RightRead))
	old, err := d.Replace("f", mkCap(2))
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if old != mkCap(1) {
		t.Fatalf("old = %v", old)
	}
	row, _ := d.Lookup("f")
	if row.Cap != mkCap(2) {
		t.Fatalf("cap = %v", row.Cap)
	}
	if _, err := d.Replace("ghost", mkCap(3)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Replace missing: %v", err)
	}
}

func TestListFiltersAndRestricts(t *testing.T) {
	d := New()
	_ = d.Append("b", mkCap(2), []capability.Rights{capability.AllRights, capability.RightRead, 0})
	_ = d.Append("a", mkCap(1), []capability.Rights{capability.AllRights, 0, capability.RightRead})

	// Owner column: sees both, full rights, sorted by name.
	rows, err := d.List(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Name != "a" || rows[1].Name != "b" {
		t.Fatalf("owner list = %+v", rows)
	}
	if rows[0].Cap.Rights != capability.AllRights {
		t.Fatalf("owner rights = %v", rows[0].Cap.Rights)
	}

	// Group column: row "a" hidden (mask 0), row "b" restricted to read.
	rows, err = d.List(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Name != "b" {
		t.Fatalf("group list = %+v", rows)
	}
	if rows[0].Cap.Rights != capability.RightRead {
		t.Fatalf("group rights = %v", rows[0].Cap.Rights)
	}
	// The restricted capability must still verify against the secret.
	if err := capability.Verify(rows[0].Cap, capability.NewSecret([]byte{2})); err != nil {
		t.Fatalf("restricted cap does not verify: %v", err)
	}

	if _, err := d.List(3); !errors.Is(err, ErrColumns) {
		t.Fatalf("List bad column: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := New()
	_ = d.Append("f", mkCap(1), threeMasks(capability.RightRead))
	c := d.Clone()
	c.Rows[0].ColMasks[0] = 0
	c.Rows[0].Name = "mutated"
	if d.Rows[0].ColMasks[0] != capability.AllRights || d.Rows[0].Name != "f" {
		t.Fatal("Clone shares storage with original")
	}
}

// TestForkLeavesOriginal: every update method run on a fork leaves the
// directory it was forked from byte-for-byte as it was, although the two
// share masks and column names.
func TestForkLeavesOriginal(t *testing.T) {
	d := New()
	for i, name := range []string{"a", "b", "c"} {
		_ = d.Append(name, mkCap(uint32(i+1)), threeMasks(capability.RightRead))
	}
	before := d.Encode()
	f := d.Fork(nil)
	steps := []error{
		f.Append("d", mkCap(9), threeMasks(capability.RightWrite)),
		f.Chmod("a", threeMasks(capability.RightDelete)),
		f.Delete("b"),
	}
	_, err := f.Replace("c", mkCap(10))
	steps = append(steps, err)
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	f.Seq = 99
	if !bytes.Equal(d.Encode(), before) {
		t.Fatal("an update staged in the fork changed the original")
	}
	if names := f.Names(); !reflect.DeepEqual(names, []string{"a", "c", "d"}) {
		t.Fatalf("fork rows = %v", names)
	}
}

// TestForkIntoRecycles: a fork built in a retired image is an exact
// copy of the source whatever the retired image held, and reuses its row
// array instead of allocating once the array has room for one more row.
func TestForkIntoRecycles(t *testing.T) {
	src := New()
	for i, name := range []string{"a", "b"} {
		_ = src.Append(name, mkCap(uint32(i+1)), threeMasks(capability.RightRead))
	}
	src.Seq = 7
	retired := New("x")
	for i, name := range []string{"p", "q", "r", "s"} {
		_ = retired.Append(name, mkCap(uint32(10+i)), []capability.Rights{capability.RightWrite})
	}
	f := src.Fork(retired)
	if f != retired || !bytes.Equal(f.Encode(), src.Encode()) {
		t.Fatalf("fork into a retired image = %v, want a copy of %v", f.Names(), src.Names())
	}
	if got := testing.AllocsPerRun(100, func() { src.Fork(retired) }); got != 0 {
		t.Fatalf("fork into a roomy image allocates %.0f times", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New("owner", "other")
	d.Seq = 42
	_ = d.Append("x", mkCap(7), []capability.Rights{capability.AllRights, capability.RightRead})
	_ = d.Append("y", mkCap(8), []capability.Rights{capability.RightWrite, 0})

	got, err := Decode(d.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	build := func() *Directory {
		d := New()
		d.Seq = 7
		_ = d.Append("n1", mkCap(1), threeMasks(capability.RightRead))
		_ = d.Append("n2", mkCap(2), threeMasks(0))
		return d
	}
	if !bytes.Equal(build().Encode(), build().Encode()) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestDecodeCorrupt(t *testing.T) {
	d := New()
	_ = d.Append("f", mkCap(1), threeMasks(capability.RightRead))
	img := d.Encode()

	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"bad magic", append([]byte{'X'}, img[1:]...)},
		{"truncated", img[:len(img)-3]},
		{"trailing garbage", append(append([]byte{}, img...), 0xFF)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Decode(tt.buf); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Property: encode/decode round trips arbitrary directories built from a
// random sequence of valid operations.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		d.Seq = rng.Uint64()
		for i := 0; i < int(nOps); i++ {
			name := string(rune('a'+rng.Intn(26))) + string(rune('a'+rng.Intn(26)))
			switch rng.Intn(3) {
			case 0:
				_ = d.Append(name, mkCap(rng.Uint32()&0xffffff), threeMasks(capability.Rights(rng.Intn(256))))
			case 1:
				_ = d.Delete(name)
			case 2:
				_, _ = d.Replace(name, mkCap(rng.Uint32()&0xffffff))
			}
		}
		got, err := Decode(d.Encode())
		return err == nil && reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
