package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// This file is the one frame codec of the package: every message of the
// gradient protocol (a binary message, gradframe.go) and of the sweep
// protocol (a JSON SweepFrame, sweepwire.go) travels as
//
//	4-byte big-endian length | 4-byte CRC32 (IEEE) of the body | body
//
// The length prefix bounds the read and makes partial writes detectable; the
// checksum detects in-flight corruption, so a damaged honest gradient is
// rejected as a transport fault instead of reaching the filters as if it were
// that agent's report. No codec state spans frames, so one bad frame never
// desynchronizes the connection.

const (
	// MaxFrame bounds a frame body (64 MiB) in either direction: a length
	// prefix beyond it is stream corruption, not an allocation request.
	MaxFrame = 64 << 20
	// frameHeader is the size of the length and checksum before the body.
	frameHeader = 8
	// frameChunk (512 KiB) bounds the reader's trust in a length prefix: the
	// body is read in steps of at most this size into a buffer that grows
	// with the bytes that have arrived, and a buffer larger than this is let
	// go once a frame needs less than half of it.
	frameChunk = 512 << 10
)

// ErrFrameTooLarge is returned (wrapped) for frames exceeding MaxFrame in
// either direction.
var ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")

// ErrCorruptFrame is returned (wrapped) when a frame's checksum does not
// match its body: the message was damaged in transit. Receivers treat the
// delivery as omitted — the payload must never be trusted.
var ErrCorruptFrame = errors.New("transport: frame checksum mismatch")

// WireTap intercepts an outgoing frame body after its checksum is computed
// and before it is written, mutating the bytes in place — the fault-
// injection hook: damage applied here is exactly in-flight corruption, and
// the receiver's CRC check is what has to catch it. round is the protocol
// round the frame belongs to (-1 for handshake and shutdown frames), so
// deterministic chaos plans can key their draws.
type WireTap func(round int, body []byte)

// frameStart resets buf to a frame with room for the header and no body yet;
// the caller appends the body and hands the result to writeFrame.
func frameStart(buf []byte) []byte {
	return append(buf[:0], make([]byte, frameHeader)...)
}

// writeFrame fills in the header of frame (frameStart plus a body) and sends
// it with a single Write.
func writeFrame(w io.Writer, frame []byte, round int, tap WireTap) error {
	body := frame[frameHeader:]
	if len(body) > MaxFrame {
		return fmt.Errorf("transport: frame is %d bytes: %w", len(body), ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	if tap != nil {
		tap(round, body)
	}
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// readFrame reads one frame into buf's storage and returns it (on every
// path, so a connection keeps the buffer it owns): the body is
// frame[frameHeader:], valid until buf is reused. io.EOF is returned verbatim
// when the stream ends cleanly between frames; an EOF inside a frame is
// io.ErrUnexpectedEOF (wrapped). Oversized frames fail with ErrFrameTooLarge
// before any read of the body, checksum mismatches with ErrCorruptFrame.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	buf = frameStart(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		if errors.Is(err, io.EOF) {
			return buf, io.EOF
		}
		return buf, fmt.Errorf("transport: read frame header: %w", err)
	}
	size, sum := binary.BigEndian.Uint32(buf[:4]), binary.BigEndian.Uint32(buf[4:])
	if size > MaxFrame {
		return buf, fmt.Errorf("transport: frame length %d: %w", size, ErrFrameTooLarge)
	}
	end := frameHeader + int(size)
	if cap(buf) > frameChunk && end <= cap(buf)/2 {
		buf = slices.Clone(buf)
	}
	for len(buf) < end {
		n := min(end-len(buf), frameChunk)
		buf = slices.Grow(buf, n)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+n])
		buf = buf[:len(buf)+m]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return buf, fmt.Errorf("transport: read frame body: %w", err)
		}
	}
	if crc32.ChecksumIEEE(buf[frameHeader:]) != sum {
		return buf, fmt.Errorf("transport: frame of %d bytes: %w", size, ErrCorruptFrame)
	}
	return buf, nil
}
