package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file is the coordinator/worker half of the transport package: the
// wire protocol behind the distributed sweep fabric (internal/sweep's
// Coordinate and Work). Where the gradient protocol of tcp.go moves one
// vector per round as raw float64 bits, the sweep protocol moves whole result
// rows and spec documents, so the body of its frames (frame.go: length
// prefix, CRC32, size cap and error taxonomy are shared with the gradient
// protocol) is one JSON-encoded SweepFrame, and the payloads stay inspectable
// on the wire.
//
// Conversation shape, mirroring the hello handshake of tcp.go:
//
//	worker → coordinator   hello          (SweepHello: protocol version, name)
//	coordinator → worker   spec           (opaque spec document)
//	worker → coordinator   lease-request
//	coordinator → worker   lease          (SweepLease: cell indices + TTL;
//	                                       empty Indices = nothing pending
//	                                       right now, retry after RetryMillis)
//	worker → coordinator   result         (one opaque result row, streamed
//	                                       per completed cell)
//	...                                   (lease-request/lease/result repeat)
//	coordinator → worker   done           (grid complete: disconnect)
//	either direction       error          (SweepError: fatal, close the conn)
//
// The spec and result payloads stay json.RawMessage here: the transport
// frames and routes them, internal/sweep owns their schema.

// SweepProtoVersion is the sweep wire-protocol version a worker announces in
// its hello frame; the coordinator rejects mismatches during the handshake.
// Version 2 added the per-frame CRC32 (a 4-byte checksum between the length
// prefix and the body), so corrupted frames are detected instead of parsed.
const SweepProtoVersion = 2

// Sweep frame kinds. Strings, not iota: the frames are JSON, and a
// self-describing kind survives protocol evolution and debugging dumps.
const (
	SweepKindHello        = "hello"
	SweepKindSpec         = "spec"
	SweepKindLeaseRequest = "lease-request"
	SweepKindLease        = "lease"
	SweepKindResult       = "result"
	SweepKindDone         = "done"
	SweepKindError        = "error"
)

// SweepFrame is the single envelope every sweep-protocol message travels in.
type SweepFrame struct {
	Kind    string          `json:"kind"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// SweepHello is the worker's opening frame.
type SweepHello struct {
	// Proto is the worker's SweepProtoVersion.
	Proto int `json:"proto"`
	// Name labels the worker in coordinator logs; it carries no protocol
	// meaning and need not be unique.
	Name string `json:"name,omitempty"`
}

// SweepLease assigns grid cells to a worker.
type SweepLease struct {
	// Indices are full-grid cell indices the worker should run. Empty means
	// nothing is pending right now (every remaining cell is leased
	// elsewhere): the worker should re-request after RetryMillis.
	Indices []int `json:"indices,omitempty"`
	// TTLMillis is the lease deadline: cells not returned within it are
	// reassigned, so a worker holding a lease past the TTL may find its
	// results discarded as duplicates.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
	// RetryMillis, on an empty lease, tells the worker how long to wait
	// before asking again.
	RetryMillis int64 `json:"retry_ms,omitempty"`
}

// SweepDone ends the conversation: the grid is complete.
type SweepDone struct {
	Reason string `json:"reason,omitempty"`
}

// SweepError carries a fatal protocol-level failure as data before the
// connection closes.
type SweepError struct {
	Message string `json:"message"`
}

// WriteSweepFrame encodes payload (pre-encoded json.RawMessage passes
// through verbatim) and writes one frame with a single Write. It is not safe
// for concurrent use on one writer; callers serialize (the sweep protocol is
// request/response per connection, with results streamed from one goroutine).
func WriteSweepFrame(w io.Writer, kind string, payload any) error {
	var raw json.RawMessage
	switch p := payload.(type) {
	case nil:
	case json.RawMessage:
		raw = p
	default:
		enc, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("transport: encode %s payload: %w", kind, err)
		}
		raw = enc
	}
	body, err := json.Marshal(SweepFrame{Kind: kind, Payload: raw})
	if err != nil {
		return fmt.Errorf("transport: encode %s frame: %w", kind, err)
	}
	frame := append(frameStart(make([]byte, 0, frameHeader+len(body))), body...)
	if err := writeFrame(w, frame, -1, nil); err != nil {
		return fmt.Errorf("transport: %s frame: %w", kind, err)
	}
	return nil
}

// ReadSweepFrame reads one frame. io.EOF is returned verbatim when the
// stream ends cleanly between frames; an EOF inside a frame is
// io.ErrUnexpectedEOF (wrapped), distinguishing a peer that went away from
// one that was cut off mid-message.
func ReadSweepFrame(r io.Reader) (SweepFrame, error) {
	fr := frameReader{exact: true}
	body, err := fr.read(r)
	if err != nil {
		return SweepFrame{}, err
	}
	var f SweepFrame
	if err := json.Unmarshal(body, &f); err != nil {
		return SweepFrame{}, fmt.Errorf("transport: decode frame: %w", err)
	}
	if f.Kind == "" {
		return SweepFrame{}, errors.New("transport: frame without kind")
	}
	return f, nil
}

// Decode unmarshals the frame payload into dst, with the frame kind in the
// error for context.
func (f SweepFrame) Decode(dst any) error {
	if len(f.Payload) == 0 {
		return fmt.Errorf("transport: %s frame has no payload", f.Kind)
	}
	if err := json.Unmarshal(f.Payload, dst); err != nil {
		return fmt.Errorf("transport: decode %s payload: %w", f.Kind, err)
	}
	return nil
}

// ExpectSweepFrame reads one frame and requires the given kind, decoding a
// peer's error frame into a Go error — the common receive pattern on both
// ends of the handshake.
func ExpectSweepFrame(r io.Reader, kind string) (SweepFrame, error) {
	f, err := ReadSweepFrame(r)
	if err != nil {
		return SweepFrame{}, err
	}
	if f.Kind == SweepKindError {
		var se SweepError
		if err := f.Decode(&se); err != nil {
			return SweepFrame{}, err
		}
		return SweepFrame{}, fmt.Errorf("transport: peer error: %s", se.Message)
	}
	if f.Kind != kind {
		return SweepFrame{}, fmt.Errorf("transport: got %s frame while expecting %s", f.Kind, kind)
	}
	return f, nil
}
