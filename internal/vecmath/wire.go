package vecmath

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// This file is the one byte layout of a vector the module sends, in TCP
// gradient frames and p2p broadcast payloads: each coordinate's IEEE-754
// bits, little-endian. A little-endian host holds a []float64 so in memory and
// moves a vector in one copy; a big-endian host takes the per-coordinate loop.

// nativeLE reports whether the host's byte order is the layout's.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// AppendLE appends v's encoding to dst.
func AppendLE(dst []byte, v []float64) []byte {
	if !nativeLE {
		return appendLELoop(dst, v)
	}
	return append(dst, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))...)
}

// DecodeLE sets dst from src, which holds exactly 8*len(dst) bytes of the
// encoding. Every value comes back bit for bit, NaN payloads included.
func DecodeLE[S ~string | ~[]byte](dst []float64, src S) {
	if !nativeLE {
		decodeLELoop(dst, src)
		return
	}
	copy(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), 8*len(dst)), src)
}

// appendLELoop is AppendLE one coordinate at a time.
func appendLELoop(dst []byte, v []float64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// decodeLELoop is DecodeLE one coordinate at a time.
func decodeLELoop[S ~string | ~[]byte](dst []float64, src S) {
	for i := range dst {
		var u uint64
		for b := range 8 {
			u |= uint64(src[8*i+b]) << (8 * b)
		}
		dst[i] = math.Float64frombits(u)
	}
}
