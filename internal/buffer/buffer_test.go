package buffer

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	b := New(16)
	if b.Len() != 16 || !b.Real() {
		t.Fatalf("New(16): len=%d real=%v", b.Len(), b.Real())
	}
	for i := 0; i < 16; i++ {
		if b.Byte(i) != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
}

func TestPhantomBasics(t *testing.T) {
	p := Phantom(32)
	if p.Real() {
		t.Fatal("Phantom(32) reported real")
	}
	if p.Len() != 32 {
		t.Fatalf("len = %d, want 32", p.Len())
	}
	if p.Byte(5) != 0 {
		t.Fatal("phantom byte should read zero")
	}
	p.SetByte(5, 7) // must not panic
	s := p.Slice(8, 8)
	if s.Real() || s.Len() != 8 {
		t.Fatalf("phantom slice: real=%v len=%d", s.Real(), s.Len())
	}
}

func TestPhantomZeroLengthIsReal(t *testing.T) {
	if !Phantom(0).Real() {
		t.Fatal("zero-length phantom should count as real (has no missing bytes)")
	}
}

func TestMake(t *testing.T) {
	if Make(4, true).Real() {
		t.Fatal("Make(phantom=true) returned real buffer")
	}
	if !Make(4, false).Real() {
		t.Fatal("Make(phantom=false) returned phantom buffer")
	}
}

func TestCopyRealToReal(t *testing.T) {
	src := New(8)
	for i := 0; i < 8; i++ {
		src.SetByte(i, byte(i+1))
	}
	dst := New(8)
	if n := Copy(dst, src); n != 8 {
		t.Fatalf("Copy returned %d, want 8", n)
	}
	if !Equal(dst, src) {
		t.Fatal("copy did not transfer contents")
	}
}

func TestCopyShortDst(t *testing.T) {
	src := New(8)
	dst := New(3)
	if n := Copy(dst, src); n != 3 {
		t.Fatalf("Copy returned %d, want 3", n)
	}
}

func TestCopyPhantomCounts(t *testing.T) {
	if n := Copy(Phantom(10), New(6)); n != 6 {
		t.Fatalf("phantom copy count = %d, want 6", n)
	}
	if n := Copy(New(4), Phantom(10)); n != 4 {
		t.Fatalf("phantom copy count = %d, want 4", n)
	}
}

func TestSliceAliases(t *testing.T) {
	b := New(10)
	s := b.Slice(2, 4)
	s.SetByte(0, 0xAA)
	if b.Byte(2) != 0xAA {
		t.Fatal("slice does not alias parent")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(4).Slice(2, 4)
}

func TestNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestFromBytesAliases(t *testing.T) {
	raw := []byte{1, 2, 3}
	b := FromBytes(raw)
	b.SetByte(1, 9)
	if raw[1] != 9 {
		t.Fatal("FromBytes does not alias")
	}
	if len(b.Bytes()) != 3 {
		t.Fatalf("Bytes len = %d", len(b.Bytes()))
	}
}

func TestZeroAndClone(t *testing.T) {
	b := New(5)
	b.FillPattern(3)
	c := b.Clone()
	b.Zero()
	for i := 0; i < 5; i++ {
		if b.Byte(i) != 0 {
			t.Fatal("Zero left data behind")
		}
	}
	anyNonZero := false
	for i := 0; i < 5; i++ {
		if c.Byte(i) != 0 {
			anyNonZero = true
		}
	}
	if !anyNonZero {
		t.Fatal("clone shares storage with original or pattern empty")
	}
}

func TestClonePhantom(t *testing.T) {
	c := Phantom(7).Clone()
	if c.Real() || c.Len() != 7 {
		t.Fatalf("phantom clone: real=%v len=%d", c.Real(), c.Len())
	}
}

func TestEqualSemantics(t *testing.T) {
	a, b := New(4), New(4)
	a.SetByte(0, 1)
	if Equal(a, b) {
		t.Fatal("different contents reported equal")
	}
	if !Equal(a, Phantom(4)) {
		t.Fatal("phantom should equal same-length real")
	}
	if Equal(a, New(5)) {
		t.Fatal("length mismatch reported equal")
	}
}

func TestUint32RoundTrip(t *testing.T) {
	b := New(12)
	b.PutUint32(4, 0xDEADBEEF)
	if got := b.Uint32(4); got != 0xDEADBEEF {
		t.Fatalf("Uint32 = %#x", got)
	}
	p := Phantom(12)
	p.PutUint32(0, 1)
	if p.Uint32(0) != 0 {
		t.Fatal("phantom uint32 should read zero")
	}
}

func TestUint64RoundTrip(t *testing.T) {
	b := New(16)
	b.PutUint64(8, 0x0123456789ABCDEF)
	if got := b.Uint64(8); got != 0x0123456789ABCDEF {
		t.Fatalf("Uint64 = %#x", got)
	}
}

func TestFillPatternDeterministic(t *testing.T) {
	a, b := New(32), New(32)
	a.FillPattern(42)
	b.FillPattern(42)
	if !Equal(a, b) {
		t.Fatal("FillPattern not deterministic")
	}
	c := New(32)
	c.FillPattern(43)
	if Equal(a, c) {
		t.Fatal("different seeds produced identical patterns")
	}
}

// Property: for any sizes, Copy moves exactly min(len) bytes and the moved
// prefix matches.
func TestQuickCopyPrefix(t *testing.T) {
	f := func(srcLen, dstLen uint8, seed uint64) bool {
		src := New(int(srcLen))
		src.FillPattern(seed)
		dst := New(int(dstLen))
		n := Copy(dst, src)
		want := int(srcLen)
		if int(dstLen) < want {
			want = int(dstLen)
		}
		if n != want {
			return false
		}
		for i := 0; i < n; i++ {
			if dst.Byte(i) != src.Byte(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: slicing then indexing equals direct indexing.
func TestQuickSliceIndex(t *testing.T) {
	f := func(seed uint64, off, ln, i uint8) bool {
		b := New(64)
		b.FillPattern(seed)
		o, l := int(off)%32, int(ln)%32
		s := b.Slice(o, l)
		if l == 0 {
			return true
		}
		j := int(i) % l
		return s.Byte(j) == b.Byte(o+j)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroLengthSliceOfPhantomIsReal(t *testing.T) {
	ph := Phantom(64)
	s := ph.Slice(8, 0)
	if !s.Real() {
		t.Error("zero-length slice of a phantom buffer must be real (zero-length buffers carry no mode)")
	}
	// And it must be usable anywhere a real buffer is: Bytes must not
	// panic.
	if got := len(s.Bytes()); got != 0 {
		t.Errorf("Bytes() length = %d, want 0", got)
	}
	if s2 := ph.Slice(0, 1); s2.Real() {
		t.Error("non-empty slice of a phantom buffer must stay phantom")
	}
}

func TestCopyMixedModes(t *testing.T) {
	// real -> real moves bytes.
	dst := New(4)
	src := New(4)
	src.FillPattern(3)
	if n := Copy(dst, src); n != 4 || !Equal(dst, src) {
		t.Errorf("real->real: n=%d equal=%v", n, Equal(dst, src))
	}
	// phantom -> real zeroes the destination prefix (phantoms read as
	// zero), rather than leaving stale bytes behind.
	dst.FillPattern(9)
	if n := Copy(dst.Slice(0, 3), Phantom(3)); n != 3 {
		t.Errorf("phantom->real: n=%d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if dst.Byte(i) != 0 {
			t.Errorf("phantom->real: byte %d = %#x, want 0", i, dst.Byte(i))
		}
	}
	if dst.Byte(3) == 0 {
		t.Error("phantom->real: byte past the copied prefix was clobbered")
	}
	// real -> phantom and phantom -> phantom only account.
	if n := Copy(Phantom(8), src); n != 4 {
		t.Errorf("real->phantom: n=%d, want 4", n)
	}
	if n := Copy(Phantom(2), Phantom(8)); n != 2 {
		t.Errorf("phantom->phantom: n=%d, want 2", n)
	}
}

// TestAccessorPanicMessages pins the out-of-range panics of the
// inlinable accessors byte for byte to the text they printed when they
// panicked with a formatted string: the panic value is now a rangeError,
// formatted only when printed.
func TestAccessorPanicMessages(t *testing.T) {
	real, phantom := New(8), Phantom(8)
	for _, c := range []struct {
		name string
		f    func()
		want string
	}{
		{"Slice past end", func() { real.Slice(6, 4) }, "buffer: slice [6:10) out of range of 8-byte buffer"},
		{"Slice negative off", func() { real.Slice(-1, 2) }, "buffer: slice [-1:1) out of range of 8-byte buffer"},
		{"Slice negative n", func() { phantom.Slice(2, -1) }, "buffer: slice [2:1) out of range of 8-byte buffer"},
		{"Slice off past end", func() { real.Slice(9, 0) }, "buffer: slice [9:9) out of range of 8-byte buffer"},
		{"Uint32", func() { real.Uint32(5) }, "buffer: Uint32 at 5 out of range of 8-byte buffer"},
		{"Uint32 negative", func() { phantom.Uint32(-4) }, "buffer: Uint32 at -4 out of range of 8-byte buffer"},
		{"PutUint32", func() { real.PutUint32(8, 1) }, "buffer: PutUint32 at 8 out of range of 8-byte buffer"},
		{"PutUint32 empty", func() { New(0).PutUint32(0, 1) }, "buffer: PutUint32 at 0 out of range of 0-byte buffer"},
		{"Uint64", func() { real.Uint64(1) }, "buffer: Uint64 at 1 out of range of 8-byte buffer"},
		{"PutUint64", func() { phantom.PutUint64(-1, 1) }, "buffer: PutUint64 at -1 out of range of 8-byte buffer"},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				v := recover()
				err, ok := v.(error)
				if !ok {
					t.Fatalf("panic value %#v is not an error", v)
				}
				if got := err.Error(); got != c.want {
					t.Errorf("panic prints %q, want %q", got, c.want)
				}
				if got := fmt.Sprint(v); got != c.want {
					t.Errorf("panic value formats as %q, want %q", got, c.want)
				}
			}()
			c.f()
		})
	}
	// The boundaries themselves are in range.
	real.Slice(8, 0)
	real.PutUint32(4, 1)
	_ = real.Uint64(0)
}
