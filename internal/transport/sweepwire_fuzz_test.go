package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"time"
)

// FuzzReadSweepFrame drives the sweep frame parser with arbitrary streams:
// whatever the bytes, it must return a typed error (or a frame) promptly —
// never panic, never hang, never attempt an unbounded allocation. The
// corpus seeds the interesting shapes: valid frames, truncations at every
// layer, oversized lengths, garbage JSON, and CRC-mismatched bodies.
func FuzzReadSweepFrame(f *testing.F) {
	frame := func(kind string, payload any) []byte {
		var buf bytes.Buffer
		if err := WriteSweepFrame(&buf, kind, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := frame(SweepKindLease, SweepLease{Indices: []int{1, 2, 3}, TTLMillis: 1000})
	f.Add(valid)
	f.Add(valid[:3])            // truncated inside the header
	f.Add(valid[:len(valid)-2]) // truncated inside the body
	f.Add(frame(SweepKindHello, SweepHello{Proto: SweepProtoVersion, Name: "w"}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversized length
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-1] ^= 0x01
	f.Add(corrupted)
	garbage := []byte("not json")
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(garbage)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(garbage))
	f.Add(append(hdr[:], garbage...))

	f.Fuzz(func(t *testing.T, data []byte) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			fr, err := ReadSweepFrame(bytes.NewReader(data))
			if err != nil {
				// Every failure must be one of the protocol's typed shapes;
				// in particular an announced length past the cap must never
				// reach the allocation.
				if len(data) >= 4 {
					if size := binary.BigEndian.Uint32(data[:4]); size > MaxFrame && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
						if !errors.Is(err, ErrFrameTooLarge) {
							t.Errorf("oversized length %d returned %v, want ErrFrameTooLarge", size, err)
						}
					}
				}
				return
			}
			if fr.Kind == "" {
				t.Error("parser accepted a frame without a kind")
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("ReadSweepFrame hung on fuzzed input")
		}
	})
}

// FuzzReadGradFrame is the same contract for the gradient protocol, frame
// and message: arbitrary bytes yield a typed error, or a message that
// re-encodes to the very body it was parsed from — nothing is dropped,
// defaulted or normalised (NaN payloads included) on the way in. The same
// bytes, concatenated, go through a connection's carrying reader too
// (checkCarrying).
func FuzzReadGradFrame(f *testing.F) {
	valid := gradWire(f, kindReply, 3, []float64{1, 2}, "")
	f.Add(valid)
	f.Add(valid[:5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	corrupted := append([]byte(nil), valid...)
	corrupted[len(corrupted)-1] ^= 0x80
	f.Add(corrupted)
	f.Add(append(corrupted, valid...))
	f.Add(gradWire(f, kindHello, helloWord(5), nil, ""))
	f.Add(gradWire(f, kindReply, 9, nil, "agent failed"))
	f.Add(gradWire(f, kindRequest, 1, []float64{math.NaN(), math.Inf(-1), math.Copysign(0, -1)}, ""))
	lying := gradFrame(nil, kindReply, 2, []float64{1}, "")
	lying[frameHeader+9] = 200 // announces 200 coordinates, carries one
	var lie bytes.Buffer
	if err := writeFrame(&lie, lying, 2, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(lie.Bytes())
	f.Add([]byte(gobHelloV1))

	f.Fuzz(func(t *testing.T, data []byte) {
		checkCarrying(t, data)
		frame, err := readFrame(bytes.NewReader(data), nil)
		var m gradMsg
		if err == nil {
			m, err = parseGradMsg(frame[frameHeader:])
		}
		if err == nil {
			if again := gradFrame(nil, m.kind, m.round, m.floats(nil), string(m.text))[frameHeader:]; !bytes.Equal(again, frame[frameHeader:]) {
				t.Errorf("message %+v re-encodes to %x, parsed from %x", m, again, frame[frameHeader:])
			}
			return
		}
		typed := false
		for _, want := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameTooLarge, ErrCorruptFrame, ErrBadMessage} {
			typed = typed || errors.Is(err, want)
		}
		if !typed {
			t.Errorf("untyped error %v", err)
		}
		if len(data) >= frameHeader && binary.BigEndian.Uint32(data[:4]) > MaxFrame && !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("oversized length returned %v, want ErrFrameTooLarge", err)
		}
	})
}

// checkCarrying drives the carrying reader of a gradient connection over data
// three times over, delivered in halves, against exact frame-by-frame reads of
// the same stream: the same frames in the same order, and the same kind of
// error where the exact reads stop.
func checkCarrying(t *testing.T, data []byte) {
	stream := bytes.Repeat(data, 3)
	exact := bytes.NewReader(stream)
	var fr frameReader
	carried := iotest.HalfReader(bytes.NewReader(stream))
	for i := 0; ; i++ {
		frame, wantErr := readFrame(exact, nil)
		body, err := fr.read(carried)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("frame %d: carrying reader says %v, exact reads say %v", i, err, wantErr)
		}
		if wantErr != nil {
			for _, kind := range []error{io.EOF, io.ErrUnexpectedEOF, ErrFrameTooLarge, ErrCorruptFrame} {
				if errors.Is(wantErr, kind) != errors.Is(err, kind) {
					t.Fatalf("frame %d: carrying reader says %v, exact reads say %v", i, err, wantErr)
				}
			}
			return
		}
		if !bytes.Equal(body, frame[frameHeader:]) {
			t.Fatalf("frame %d: carrying reader has %x, exact reads %x", i, body, frame[frameHeader:])
		}
	}
}
