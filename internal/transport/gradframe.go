package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"byzopt/internal/vecmath"
)

// This file is the message codec of the gradient protocol. A frame body
// (see frame.go) is one fixed binary message, every field little-endian:
//
//	offset  0  kind: 1 hello, 2 request, 3 shutdown, 4 reply
//	offset  1  int64 round (in a hello: protocol version<<32 | agent id)
//	offset  9  uint32 n, the vector length in coordinates
//	offset 13  uint32 e, the error-text length in bytes
//	offset 17  n float64 values as their IEEE-754 bits, then e bytes of text
//
// The vector is the estimate x_t in a request and the agent's report in a
// reply; the text is an agent-side failure in a reply and the server's reason
// in a shutdown that refuses a hello. The two lengths must fill the body
// exactly.
//
// The vector's bytes are vecmath's wire layout (AppendLE, DecodeLE): on a
// little-endian host the vector's own memory, so either end moves a vector
// into or out of a frame with one copy.

// GradProtoVersion is the gradient wire-protocol version an agent announces
// in its hello; AcceptAgents refuses any other. Version 1 was a gob stream.
const GradProtoVersion = 2

// ErrBadMessage is returned (wrapped) for a gradient message that passed its
// checksum but is not well formed — unknown kind, lengths that do not fill
// the body, a reply of the wrong dimension: the peer's doing, not the wire's.
var ErrBadMessage = errors.New("transport: malformed gradient message")

const (
	kindHello byte = iota + 1
	kindRequest
	kindShutdown
	kindReply

	gradHeader = 17 // bytes before the vector
)

// helloWord is the round field of a hello.
func helloWord(agentID int) int64 { return GradProtoVersion<<32 | int64(uint32(agentID)) }

// gradMsg is a parsed gradient message; vec and text alias the frame buffer.
type gradMsg struct {
	kind  byte
	round int64
	vec   []byte // the vector's coordinates, 8 bytes each
	text  []byte
}

// gradFrame resets buf to a frame holding the message, ready for writeFrame.
func gradFrame(buf []byte, kind byte, round int64, vec []float64, text string) []byte {
	frame := append(frameStart(buf), kind)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(round))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(vec)))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(text)))
	frame = vecmath.AppendLE(slices.Grow(frame, 8*len(vec)+len(text)), vec)
	return append(frame, text...)
}

// parseGradMsg checks a frame body against the layout above without decoding
// the vector, so a caller can refuse a message from its 17-byte header.
func parseGradMsg(body []byte) (gradMsg, error) {
	if len(body) < gradHeader {
		return gradMsg{}, fmt.Errorf("%d-byte body: %w", len(body), ErrBadMessage)
	}
	m := gradMsg{kind: body[0], round: int64(binary.LittleEndian.Uint64(body[1:]))}
	n, e := int64(binary.LittleEndian.Uint32(body[9:])), int64(binary.LittleEndian.Uint32(body[13:]))
	if m.kind < kindHello || m.kind > kindReply {
		return gradMsg{}, fmt.Errorf("unknown kind %d: %w", m.kind, ErrBadMessage)
	}
	if int64(len(body)-gradHeader) != 8*n+e {
		return gradMsg{}, fmt.Errorf("%d coordinates and %d bytes of text declared in a %d-byte body: %w", n, e, len(body), ErrBadMessage)
	}
	m.vec, m.text = body[gradHeader:gradHeader+8*n], body[gradHeader+8*n:]
	return m, nil
}

// floats decodes the vector into dst's storage, growing it if needed.
func (m gradMsg) floats(dst []float64) []float64 {
	n := len(m.vec) / 8
	dst = slices.Grow(dst[:0], n)[:n]
	vecmath.DecodeLE(dst, m.vec)
	return dst
}
