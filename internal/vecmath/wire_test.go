package vecmath

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// wireValues are the values whose bits a codec could bend: signed zeros,
// subnormals, infinities, NaNs with payload bits and the extremes.
var wireValues = []float64{
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8dead0000beef), math.Pi,
}

// wireVector is a d-coordinate vector cycling through wireValues.
func wireVector(d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = wireValues[i%len(wireValues)]
	}
	return v
}

// The one-copy codec and the per-coordinate loop (the big-endian host's path,
// called here directly) write the bytes binary.LittleEndian writes, after
// whatever dst already holds, and read every value back bit for bit, from a
// []byte and from a string.
func TestWireCodecMatchesPerCoordinateLayout(t *testing.T) {
	prefix := []byte("head")
	for _, d := range []int{0, 1, 7, 1000} {
		v := wireVector(d)
		want := bytes.Clone(prefix)
		for _, x := range v {
			want = binary.LittleEndian.AppendUint64(want, math.Float64bits(x))
		}
		for name, enc := range map[string]func([]byte, []float64) []byte{"AppendLE": AppendLE, "appendLELoop": appendLELoop} {
			if got := enc(bytes.Clone(prefix), v); !bytes.Equal(got, want) {
				t.Fatalf("d=%d: %s wrote %x, want %x", d, name, got, want)
			}
		}
		payload := want[len(prefix):]
		decoders := map[string]func([]float64){
			"DecodeLE([]byte)":     func(dst []float64) { DecodeLE(dst, payload) },
			"DecodeLE(string)":     func(dst []float64) { DecodeLE(dst, string(payload)) },
			"decodeLELoop([]byte)": func(dst []float64) { decodeLELoop(dst, payload) },
			"decodeLELoop(string)": func(dst []float64) { decodeLELoop(dst, string(payload)) },
		}
		for name, dec := range decoders {
			got := make([]float64, d)
			dec(got)
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
					t.Fatalf("d=%d: %s read coordinate %d as %#x, want %#x", d, name, i, math.Float64bits(got[i]), math.Float64bits(v[i]))
				}
			}
		}
	}
}

// Both directions move the vector through storage the caller owns.
func TestWireCodecAllocs(t *testing.T) {
	v := wireVector(1000)
	buf := AppendLE(nil, v)
	s := string(buf)
	dst := make([]float64, len(v))
	if allocs := testing.AllocsPerRun(50, func() {
		buf = AppendLE(buf[:0], v)
		DecodeLE(dst, buf)
		DecodeLE(dst, s)
	}); allocs != 0 {
		t.Errorf("a warm encode and two decodes allocate %v objects, want 0", allocs)
	}
}
