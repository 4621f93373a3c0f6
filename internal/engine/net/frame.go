// Package net is the engine's real network transport: a framed TCP fabric
// that satisfies the engine's Transport v2 interface, so the distributed
// kernels written for in-process goroutine ranks run unchanged across OS
// processes or hosts. Each process hosts a contiguous chunk of ranks and
// keeps one multiplexed TCP connection per peer process carrying all of
// that pair's (src,dst,tag) channels; messages travel as length-prefixed
// binary frames with a version byte, and a closing process flushes an
// abort frame to every peer so remote Recvs unblock with a *RemoteAbort
// naming the failing rank instead of hanging. A cluster handshake
// (Coordinator/Join) assigns process identities, distributes an opaque
// payload (the plan), meshes the processes, and releases them through a
// ready/start barrier.
package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"hetgrid/internal/matrix"
)

// Frame wire format (all integers big-endian, float64 payloads
// little-endian IEEE-754 bits):
//
//	uint32  length of everything after this field (version + type + body)
//	byte    version (frameVersion)
//	byte    type
//	[]byte  body, layout by type
//
// Body layouts:
//
//	data   uint32 src | uint32 dst | uint32 len(tag) | tag |
//	       uint32 rows | uint32 cols | rows·cols float64
//	abort  int32 failing rank (-1 unknown) | reason (rest of body)
//	retx   uint32 src | uint32 dst | tag (rest of body)
//	hello, welcome, meshHello, ready, start: JSON (handshake only)
const (
	frameVersion = 1

	frameData      = 1
	frameAbort     = 2
	frameRetx      = 3
	frameHello     = 4
	frameWelcome   = 5
	frameMeshHello = 6
	frameReady     = 7
	frameStart     = 8
)

// maxFrameSize bounds a single frame; a length prefix beyond it means a
// corrupt or hostile stream and fails the connection. Within the bound,
// readFrame allocates as the body arrives, not for the claimed length.
const maxFrameSize = 1 << 30

// checkFrameSize rejects a body too long for one frame. Checked before
// anything is written, it also keeps the uint32 length prefix from
// wrapping.
func checkFrameSize(bodyLen int) error {
	if bodyLen > maxFrameSize-2 {
		return fmt.Errorf("net: %d-byte frame body exceeds the %d-byte frame limit", bodyLen, maxFrameSize-2)
	}
	return nil
}

// writeFrame emits one frame. The writer is typically buffered; callers
// flush when their queue drains.
func writeFrame(w io.Writer, ftype byte, body []byte) error {
	if err := checkFrameSize(len(body)); err != nil {
		return err
	}
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	hdr[4] = frameVersion
	hdr[5] = ftype
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame, checking the version byte.
func readFrame(r io.Reader) (ftype byte, body []byte, err error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 2 || n > maxFrameSize {
		return 0, nil, fmt.Errorf("net: frame length %d out of range", n)
	}
	if hdr[4] != frameVersion {
		return 0, nil, fmt.Errorf("net: frame version %d, want %d", hdr[4], frameVersion)
	}
	if body, err = readBody(r, int(n-2)); err != nil {
		return 0, nil, err
	}
	return hdr[5], body, nil
}

// frameChunk is the most readBody allocates before any body byte arrives.
const frameChunk = 64 << 10

// readBody reads an n-byte frame body into a buffer that grows, at most
// doubling, as bytes arrive, so a length prefix a peer claims but never
// sends costs a buffer of about frameChunk or twice the bytes actually
// received, whichever is larger. Errors match io.ReadFull over the whole
// body.
func readBody(r io.Reader, n int) ([]byte, error) {
	body := make([]byte, 0, min(n, frameChunk))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		m, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+m]
		if err != nil {
			if err == io.EOF && len(body) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return body, nil
}

// dataBodySize is the body length of a data frame carrying a rows×cols
// payload under tag.
func dataBodySize(tag string, rows, cols int) int {
	return 4 + 4 + 4 + len(tag) + 4 + 4 + 8*rows*cols
}

// encodeData serializes one tagged message: header ints big-endian, the
// row-major float64 payload as little-endian IEEE-754 bits (written per
// row, so strided views serialize correctly).
func encodeData(src, dst int, tag string, m *matrix.Dense) []byte {
	rows, cols := m.Dims()
	body := make([]byte, dataBodySize(tag, rows, cols))
	binary.BigEndian.PutUint32(body[0:], uint32(src))
	binary.BigEndian.PutUint32(body[4:], uint32(dst))
	binary.BigEndian.PutUint32(body[8:], uint32(len(tag)))
	off := 12 + copy(body[12:], tag)
	binary.BigEndian.PutUint32(body[off:], uint32(rows))
	binary.BigEndian.PutUint32(body[off+4:], uint32(cols))
	off += 8
	for i := 0; i < rows; i++ {
		for _, v := range m.RawRow(i) {
			binary.LittleEndian.PutUint64(body[off:], math.Float64bits(v))
			off += 8
		}
	}
	return body
}

// decodeData parses a data frame body back into its message.
func decodeData(body []byte) (src, dst int, tag string, m *matrix.Dense, err error) {
	if len(body) < 12 {
		return 0, 0, "", nil, fmt.Errorf("net: data frame truncated (%d bytes)", len(body))
	}
	src = int(binary.BigEndian.Uint32(body[0:]))
	dst = int(binary.BigEndian.Uint32(body[4:]))
	tagLen := binary.BigEndian.Uint32(body[8:])
	if uint64(len(body)) < 12+uint64(tagLen)+8 {
		return 0, 0, "", nil, fmt.Errorf("net: data frame truncated (%d bytes, tag %d)", len(body), tagLen)
	}
	off := 12 + int(tagLen)
	tag = string(body[12:off])
	rows := binary.BigEndian.Uint32(body[off:])
	cols := binary.BigEndian.Uint32(body[off+4:])
	off += 8
	// The shape is checked in uint64, where rows·cols cannot wrap, so a
	// header claiming more elements than the payload carries fails here,
	// before anything is allocated. No frame holds a dimension beyond
	// maxFrameSize/8, which also keeps both within int on every platform.
	payload := uint64(len(body) - off)
	if rows > maxFrameSize/8 || cols > maxFrameSize/8 || payload%8 != 0 || uint64(rows)*uint64(cols) != payload/8 {
		return 0, 0, "", nil, fmt.Errorf("net: data frame payload %d bytes for %d×%d", len(body)-off, rows, cols)
	}
	m = matrix.New(int(rows), int(cols))
	for i := 0; i < m.Rows(); i++ {
		row := m.RawRow(i)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			off += 8
		}
	}
	return src, dst, tag, m, nil
}

// encodeAbort serializes a closure notification: the failing rank (-1 when
// the closure carries no blame) and a reason string.
func encodeAbort(rank int, reason string) []byte {
	body := make([]byte, 4+len(reason))
	binary.BigEndian.PutUint32(body[0:], uint32(int32(rank)))
	copy(body[4:], reason)
	return body
}

// decodeAbort parses an abort frame body.
func decodeAbort(body []byte) (rank int, reason string, err error) {
	if len(body) < 4 {
		return 0, "", fmt.Errorf("net: abort frame truncated (%d bytes)", len(body))
	}
	return int(int32(binary.BigEndian.Uint32(body[0:]))), string(body[4:]), nil
}

// encodeRetx serializes a retransmission request for a (src,dst,tag)
// channel, sent to the process hosting src.
func encodeRetx(src, dst int, tag string) []byte {
	body := make([]byte, 8+len(tag))
	binary.BigEndian.PutUint32(body[0:], uint32(src))
	binary.BigEndian.PutUint32(body[4:], uint32(dst))
	copy(body[8:], tag)
	return body
}

// decodeRetx parses a retx frame body.
func decodeRetx(body []byte) (src, dst int, tag string, err error) {
	if len(body) < 8 {
		return 0, 0, "", fmt.Errorf("net: retx frame truncated (%d bytes)", len(body))
	}
	return int(binary.BigEndian.Uint32(body[0:])), int(binary.BigEndian.Uint32(body[4:])), string(body[8:]), nil
}
