// Package buffer provides the byte-buffer abstraction shared by every
// collective algorithm in this module.
//
// A Buf is either real (backed by memory) or phantom (tracks only a
// length). All all-to-all algorithms are written once against Buf, so the
// same code can be validated with real payloads at small rank counts and
// then scaled, size-only, to thousands of simulated ranks on a single
// host. The control flow and message sizes of every algorithm in this
// repository depend only on block sizes, never on payload contents, which
// is what makes the phantom mode faithful for performance simulation.
package buffer

import (
	"encoding/binary"
	"fmt"
)

// Buf is a fixed-length byte buffer, real or phantom. The zero value is
// an empty real buffer.
type Buf struct {
	data []byte // nil iff phantom and n > 0
	n    int
}

// New returns a real, zeroed buffer of n bytes.
func New(n int) Buf {
	if n < 0 {
		panic(fmt.Sprintf("buffer: negative length %d", n))
	}
	return Buf{data: make([]byte, n), n: n}
}

// Phantom returns a phantom buffer of n bytes: it has a length but no
// backing storage. Copies into or out of it are accounted but not
// performed.
func Phantom(n int) Buf {
	if n < 0 {
		panic(fmt.Sprintf("buffer: negative length %d", n))
	}
	return Buf{n: n}
}

// Make returns a real or phantom buffer of n bytes depending on the flag.
// It is the allocation entry point used by algorithms so that a single
// code path serves both execution modes.
func Make(n int, phantom bool) Buf {
	if phantom {
		return Phantom(n)
	}
	return New(n)
}

// FromBytes wraps an existing byte slice as a real buffer. The buffer
// aliases b; writes through the Buf are visible in b.
func FromBytes(b []byte) Buf { return Buf{data: b, n: len(b)} }

// Len reports the buffer's length in bytes.
func (b Buf) Len() int { return b.n }

// Real reports whether the buffer has backing storage. Zero-length
// buffers are always real: with no bytes to back, a zero-length slice
// of a phantom buffer and a zero-length real buffer are the same
// object, and both may be passed anywhere a real buffer is expected
// (the transport relies on this to never hand a phantom payload to a
// real receiver — any non-empty payload's mode follows its source
// buffer, and empty payloads are mode-less).
func (b Buf) Real() bool { return b.data != nil || b.n == 0 }

// Bytes returns the backing slice of a real buffer. It panics for a
// non-empty phantom buffer.
func (b Buf) Bytes() []byte {
	if !b.Real() {
		panic("buffer: Bytes on phantom buffer")
	}
	if b.data == nil {
		return []byte{}
	}
	return b.data[:b.n]
}

// Slice returns the sub-buffer [off, off+n). Like a Go slice it aliases
// the original storage. It panics if the range is out of bounds. A
// zero-length slice of a phantom buffer is a zero-length real buffer,
// per the Real convention that zero-length buffers carry no mode.
func (b Buf) Slice(off, n int) Buf {
	if uint(off) > uint(b.n) || uint(n) > uint(b.n-off) {
		panic(rangeError{op: "slice", off: off, n: n, size: b.n})
	}
	if b.data == nil {
		return Buf{n: n}
	}
	return Buf{data: b.data[off : off+n], n: n}
}

// Byte returns the i-th byte. Phantom buffers read as zero.
func (b Buf) Byte(i int) byte {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("buffer: index %d out of range of %d-byte buffer", i, b.n))
	}
	if b.data == nil {
		return 0
	}
	return b.data[i]
}

// SetByte stores v at index i. Stores into phantom buffers are dropped.
func (b Buf) SetByte(i int, v byte) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("buffer: index %d out of range of %d-byte buffer", i, b.n))
	}
	if b.data != nil {
		b.data[i] = v
	}
}

// Copy copies min(dst.Len(), src.Len()) bytes from src to dst and returns
// the number of bytes copied. Mixed-mode copies are defined explicitly:
//
//   - real -> real: bytes move.
//   - any -> phantom: nothing moves (there is nowhere to write); the
//     count is still returned so callers can account the copy.
//   - phantom -> real: the destination prefix is zeroed, consistent
//     with phantom buffers reading as zero everywhere else (Byte,
//     Uint32, Uint64). This is the path taken when a caller hands a
//     real buffer to a receive in a phantom world; before it was made
//     explicit, the destination silently kept its stale contents.
func Copy(dst, src Buf) int {
	n := dst.n
	if src.n < n {
		n = src.n
	}
	if dst.data != nil {
		if src.data != nil {
			copy(dst.data[:n], src.data[:n])
		} else {
			clear(dst.data[:n])
		}
	}
	return n
}

// Zero clears a real buffer's contents; it is a no-op for phantoms.
func (b Buf) Zero() {
	if b.data == nil {
		return
	}
	clear(b.data[:b.n])
}

// Clone returns an independent copy of the buffer (phantom stays
// phantom).
func (b Buf) Clone() Buf {
	if b.data == nil {
		return Buf{n: b.n}
	}
	c := make([]byte, b.n)
	copy(c, b.data[:b.n])
	return Buf{data: c, n: b.n}
}

// Equal reports whether two buffers have the same length and, when both
// are real, the same contents. A phantom buffer equals any buffer of the
// same length.
func Equal(a, b Buf) bool {
	if a.n != b.n {
		return false
	}
	if a.data == nil || b.data == nil {
		return true
	}
	for i := 0; i < a.n; i++ {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// FillPattern writes a deterministic byte pattern derived from seed into
// a real buffer; used by tests to detect misplaced blocks. Phantoms are
// untouched.
func (b Buf) FillPattern(seed uint64) {
	if b.data == nil {
		return
	}
	x := seed*0x9e3779b97f4a7c15 + 0x7f4a7c15
	for i := 0; i < b.n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b.data[i] = byte(x)
	}
}

// The fixed-width accessors below sit on every algorithm's metadata
// path, so they are kept within the compiler's inlining budget: one
// unsigned range check each, and a rangeError panic value that is
// formatted only if it is printed.

// PutUint32 stores a little-endian uint32 at byte offset off. Stores into
// phantom buffers are dropped.
func (b Buf) PutUint32(off int, v uint32) {
	if uint(off) >= uint(b.n) || b.n-off < 4 {
		panic(rangeError{op: "PutUint32", off: off, size: b.n})
	}
	if b.data != nil {
		binary.LittleEndian.PutUint32(b.data[off:], v)
	}
}

// Uint32 loads a little-endian uint32 from byte offset off. Phantom
// buffers read as zero.
func (b Buf) Uint32(off int) uint32 {
	if uint(off) >= uint(b.n) || b.n-off < 4 {
		panic(rangeError{op: "Uint32", off: off, size: b.n})
	}
	if b.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b.data[off:])
}

// PutUint64 stores a little-endian uint64 at byte offset off. Stores into
// phantom buffers are dropped.
func (b Buf) PutUint64(off int, v uint64) {
	if uint(off) >= uint(b.n) || b.n-off < 8 {
		panic(rangeError{op: "PutUint64", off: off, size: b.n})
	}
	if b.data != nil {
		binary.LittleEndian.PutUint64(b.data[off:], v)
	}
}

// Uint64 loads a little-endian uint64 from byte offset off. Phantom
// buffers read as zero.
func (b Buf) Uint64(off int) uint64 {
	if uint(off) >= uint(b.n) || b.n-off < 8 {
		panic(rangeError{op: "Uint64", off: off, size: b.n})
	}
	if b.data == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b.data[off:])
}

// rangeError is the panic value of an out-of-range Slice or fixed-width
// access: op names the access, off and n the requested range (n unused
// by the fixed-width accessors), size the buffer length.
type rangeError struct {
	op           string
	off, n, size int
}

func (e rangeError) Error() string {
	if e.op == "slice" {
		return fmt.Sprintf("buffer: slice [%d:%d) out of range of %d-byte buffer", e.off, e.off+e.n, e.size)
	}
	return fmt.Sprintf("buffer: %s at %d out of range of %d-byte buffer", e.op, e.off, e.size)
}
