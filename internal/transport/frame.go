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

// frameReader reads the frames of one stream into a buffer it keeps. On a
// connection the transport owns, each Read asks for all the room the buffer
// has and bytes past a frame's end are kept for the next frame, so a frame
// that has arrived whole costs one Read. An exact reader (ReadSweepFrame's, on
// a caller's io.Reader) reads no byte past the frame.
type frameReader struct {
	buf   []byte // bytes read; buf[:next] is the frame returned last
	next  int
	exact bool
}

// read returns the next frame's body, valid until the next read. io.EOF is
// returned verbatim when the stream ends cleanly between frames; an EOF inside
// a frame is io.ErrUnexpectedEOF (wrapped). Oversized frames fail with
// ErrFrameTooLarge before any read of the body, checksum mismatches with
// ErrCorruptFrame, and the next read starts after the corrupt frame.
func (fr *frameReader) read(r io.Reader) ([]byte, error) {
	fr.buf, fr.next = fr.buf[:copy(fr.buf, fr.buf[fr.next:])], 0
	if err := fr.fill(r, frameHeader); err == io.EOF {
		return nil, err
	} else if err != nil {
		return nil, fmt.Errorf("transport: read frame header: %w", err)
	}
	size, sum := binary.BigEndian.Uint32(fr.buf[:4]), binary.BigEndian.Uint32(fr.buf[4:])
	if size > MaxFrame {
		return nil, fmt.Errorf("transport: frame length %d: %w", size, ErrFrameTooLarge)
	}
	end := frameHeader + int(size)
	if cap(fr.buf) > frameChunk && max(end, len(fr.buf)) <= cap(fr.buf)/2 {
		fr.buf = slices.Clone(fr.buf)
	}
	if err := fr.fill(r, end); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	fr.next = end
	if crc32.ChecksumIEEE(fr.buf[frameHeader:end]) != sum {
		return nil, fmt.Errorf("transport: frame of %d bytes: %w", size, ErrCorruptFrame)
	}
	return fr.buf[frameHeader:end], nil
}

// fill reads until the buffer holds need bytes, growing it by at most
// frameChunk a step: it follows the bytes that arrive, not a length prefix's
// claim. An EOF after some bytes of a frame is io.ErrUnexpectedEOF.
func (fr *frameReader) fill(r io.Reader, need int) error {
	for len(fr.buf) < need {
		fr.buf = slices.Grow(fr.buf, min(need-len(fr.buf), frameChunk))
		limit := cap(fr.buf)
		if fr.exact {
			limit = min(limit, need)
		}
		m, err := r.Read(fr.buf[len(fr.buf):limit])
		if fr.buf = fr.buf[:len(fr.buf)+m]; err != nil && len(fr.buf) < need {
			if err == io.EOF && len(fr.buf) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
