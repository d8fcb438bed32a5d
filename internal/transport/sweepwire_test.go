package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"strings"
	"testing"
)

func TestSweepFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := SweepHello{Proto: SweepProtoVersion, Name: "w0"}
	lease := SweepLease{Indices: []int{4, 7, 19}, TTLMillis: 30_000}
	if err := WriteSweepFrame(&buf, SweepKindHello, hello); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepFrame(&buf, SweepKindLeaseRequest, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepFrame(&buf, SweepKindLease, lease); err != nil {
		t.Fatal(err)
	}
	// A pre-encoded payload must pass through verbatim.
	raw := json.RawMessage(`{"grid_index":3}`)
	if err := WriteSweepFrame(&buf, SweepKindResult, raw); err != nil {
		t.Fatal(err)
	}

	f, err := ExpectSweepFrame(&buf, SweepKindHello)
	if err != nil {
		t.Fatal(err)
	}
	var gotHello SweepHello
	if err := f.Decode(&gotHello); err != nil {
		t.Fatal(err)
	}
	if gotHello != hello {
		t.Errorf("hello = %+v, want %+v", gotHello, hello)
	}
	if f, err = ReadSweepFrame(&buf); err != nil || f.Kind != SweepKindLeaseRequest {
		t.Fatalf("lease-request frame: %v %v", f.Kind, err)
	}
	if len(f.Payload) != 0 {
		t.Errorf("lease-request should have no payload, got %s", f.Payload)
	}
	f, err = ExpectSweepFrame(&buf, SweepKindLease)
	if err != nil {
		t.Fatal(err)
	}
	var gotLease SweepLease
	if err := f.Decode(&gotLease); err != nil {
		t.Fatal(err)
	}
	if gotLease.TTLMillis != lease.TTLMillis || len(gotLease.Indices) != 3 || gotLease.Indices[2] != 19 {
		t.Errorf("lease = %+v, want %+v", gotLease, lease)
	}
	f, err = ExpectSweepFrame(&buf, SweepKindResult)
	if err != nil {
		t.Fatal(err)
	}
	if string(f.Payload) != string(raw) {
		t.Errorf("raw payload mangled: %s", f.Payload)
	}
	// Stream exhausted between frames: a clean EOF, not an error.
	if _, err := ReadSweepFrame(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream: %v", err)
	}
}

func TestSweepFrameTruncatedBodyIsUnexpectedEOF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepFrame(&buf, SweepKindDone, SweepDone{Reason: "grid complete"}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3] // drop the frame's tail
	if _, err := ReadSweepFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: %v", err)
	}
	// Truncated inside the length prefix itself is mid-frame too.
	if _, err := ReadSweepFrame(bytes.NewReader(cut[:2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated prefix: %v", err)
	}
}

func TestSweepFrameOversizedLengthRejected(t *testing.T) {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	if _, err := ReadSweepFrame(bytes.NewReader(hdr[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("oversized length prefix: %v", err)
	}
}

func TestSweepFrameGarbageBodyRejected(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("not json")
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(body))
	buf.Write(hdr[:])
	buf.Write(body)
	if _, err := ReadSweepFrame(&buf); err == nil {
		t.Error("garbage frame body should error")
	}
}

func TestSweepFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepFrame(&buf, SweepKindDone, SweepDone{Reason: "grid complete"}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[len(wire)-1] ^= 0x40 // flip one in-flight bit of the body
	if _, err := ReadSweepFrame(bytes.NewReader(wire)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("corrupted body: %v", err)
	}
	// Damage to the checksum itself is detected the same way.
	buf.Reset()
	if err := WriteSweepFrame(&buf, SweepKindDone, SweepDone{}); err != nil {
		t.Fatal(err)
	}
	wire = buf.Bytes()
	wire[5] ^= 0x01
	if _, err := ReadSweepFrame(bytes.NewReader(wire)); !errors.Is(err, ErrCorruptFrame) {
		t.Errorf("corrupted checksum: %v", err)
	}
}

func TestExpectSweepFrameSurfacesPeerErrorAndKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSweepFrame(&buf, SweepKindError, SweepError{Message: "spec rejected"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectSweepFrame(&buf, SweepKindLease); err == nil || !strings.Contains(err.Error(), "spec rejected") {
		t.Errorf("peer error: %v", err)
	}
	buf.Reset()
	if err := WriteSweepFrame(&buf, SweepKindDone, SweepDone{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExpectSweepFrame(&buf, SweepKindLease); err == nil || !strings.Contains(err.Error(), "expecting lease") {
		t.Errorf("kind mismatch: %v", err)
	}
}
