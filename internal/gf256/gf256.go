// Package gf256 implements arithmetic over the Galois field GF(2^8)
// with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the
// polynomial conventionally used by Reed–Solomon erasure codes.
//
// All operations are constant-time table lookups after package
// initialization. The package also provides dense matrices over the
// field with Gaussian elimination, which internal/erasure uses to build
// and invert Vandermonde coding matrices.
package gf256

import (
	"encoding/binary"
	"sync/atomic"
)

// Poly is the primitive polynomial used to generate the field,
// x^8 + x^4 + x^3 + x^2 + 1, expressed with the x^8 term included.
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

// expTable[i] = g^i where g = 2 is a generator of the multiplicative
// group. The table is doubled in length so that Mul can index
// logTable[a]+logTable[b] without a modular reduction.
var expTable [2 * (Order - 1)]byte

// logTable[x] = log_g(x) for x != 0. logTable[0] is unused and left 0.
var logTable [Order]byte

func init() {
	x := 1
	for i := 0; i < Order-1; i++ {
		expTable[i] = byte(x)
		expTable[i+Order-1] = byte(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
}

// Add returns a + b in GF(2^8). Addition is XOR; it is its own inverse,
// so subtraction is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += Order - 1
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[Order-1-int(logTable[a])]
}

// Exp returns g^n for the generator g = 2. The exponent may be any
// non-negative integer; it is reduced modulo 255.
func Exp(n int) byte {
	if n < 0 {
		panic("gf256: negative exponent")
	}
	return expTable[n%(Order-1)]
}

// Pow returns a^n in GF(2^8). Pow(0, 0) is defined as 1.
func Pow(a byte, n int) byte {
	if n < 0 {
		panic("gf256: negative exponent")
	}
	if n == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(int(logTable[a])*n)%(Order-1)]
}

// mulTables caches, per coefficient c, the 256-entry product table
// t[x] = c*x. A table is built lazily the first time a coefficient is
// used and shared by every goroutine thereafter; the full set costs
// 64 KiB. Coding matrices reuse a small set of coefficients, so in
// practice only a handful of rows ever materialize.
var mulTables [Order]atomic.Pointer[[Order]byte]

// mulTable returns the product table for c, building it on first use.
// Two goroutines may race to build the same table; both produce
// identical contents, so last-store-wins is harmless.
func mulTable(c byte) *[Order]byte {
	if t := mulTables[c].Load(); t != nil {
		return t
	}
	t := new([Order]byte)
	lc := int(logTable[c])
	for x := 1; x < Order; x++ {
		t[x] = expTable[lc+int(logTable[x])]
	}
	mulTables[c].Store(t)
	return t
}

// MulSlice sets dst[i] = c * src[i] for all i. dst and src must have the
// same length; dst may be the same slice as src (in-place scaling), but
// the slices must not otherwise overlap. A zero or one coefficient takes
// fast paths.
func MulSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		if mulSliceSIMD(dst, src, c) {
			return
		}
		t := mulTable(c)
		n := len(src) &^ 7
		for i := 0; i < n; i += 8 {
			s := src[i : i+8 : i+8]
			v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 |
				uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
				uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 |
				uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
		for i := n; i < len(src); i++ {
			dst[i] = t[src[i]]
		}
	}
}

// MulAddSlice sets dst[i] ^= c * src[i] for all i — the fused
// multiply-accumulate at the heart of Reed–Solomon encoding. dst and src
// must have the same length and must not alias unless c is zero.
func MulAddSlice(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	switch c {
	case 0:
		return
	case 1:
		n := len(src) &^ 7
		for i := 0; i < n; i += 8 {
			v := binary.LittleEndian.Uint64(dst[i:]) ^ binary.LittleEndian.Uint64(src[i:])
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
		for i := n; i < len(src); i++ {
			dst[i] ^= src[i]
		}
	default:
		if mulAddSliceSIMD(dst, src, c) {
			return
		}
		t := mulTable(c)
		n := len(src) &^ 7
		for i := 0; i < n; i += 8 {
			s := src[i : i+8 : i+8]
			v := uint64(t[s[0]]) | uint64(t[s[1]])<<8 |
				uint64(t[s[2]])<<16 | uint64(t[s[3]])<<24 |
				uint64(t[s[4]])<<32 | uint64(t[s[5]])<<40 |
				uint64(t[s[6]])<<48 | uint64(t[s[7]])<<56
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		}
		for i := n; i < len(src); i++ {
			dst[i] ^= t[src[i]]
		}
	}
}

// mulSliceRef is the original byte-at-a-time log/exp implementation of
// MulSlice, kept as the reference oracle for the differential and fuzz
// tests of the word-wide kernels above.
func mulSliceRef(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulSlice length mismatch")
	}
	switch c {
	case 0:
		for i := range dst {
			dst[i] = 0
		}
	case 1:
		copy(dst, src)
	default:
		lc := int(logTable[c])
		for i, s := range src {
			if s == 0 {
				dst[i] = 0
			} else {
				dst[i] = expTable[lc+int(logTable[s])]
			}
		}
	}
}

// mulAddSliceRef is the original byte-at-a-time log/exp implementation
// of MulAddSlice, kept as the reference oracle for differential tests.
func mulAddSliceRef(dst, src []byte, c byte) {
	if len(dst) != len(src) {
		panic("gf256: MulAddSlice length mismatch")
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	lc := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[lc+int(logTable[s])]
		}
	}
}
