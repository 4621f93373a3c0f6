package net

import (
	"bytes"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"hetgrid/internal/engine"
	"hetgrid/internal/matrix"
)

func TestDataFrameRoundTrip(t *testing.T) {
	m := matrix.NewFromSlice(2, 3, []float64{1, -2.5, math.Pi, 0, math.Inf(1), -0})
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, encodeData(7, 11, "L/3", m)); err != nil {
		t.Fatal(err)
	}
	ftype, body, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ftype != frameData {
		t.Fatalf("frame type %d, want %d", ftype, frameData)
	}
	src, dst, tag, got, err := decodeData(body)
	if err != nil {
		t.Fatal(err)
	}
	if src != 7 || dst != 11 || tag != "L/3" {
		t.Fatalf("header (%d,%d,%q), want (7,11,%q)", src, dst, tag, "L/3")
	}
	if !got.Equal(m) {
		t.Fatal("payload not bit-identical after the wire round trip")
	}
}

func TestDataFrameStridedView(t *testing.T) {
	// A submatrix view has row stride > cols; per-row serialization must
	// still capture exactly the viewed cells.
	full := matrix.New(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			full.Set(i, j, float64(10*i+j))
		}
	}
	view := full.Slice(1, 3, 1, 3)
	_, _, _, got, err := decodeData(encodeData(0, 1, "v", view))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(view) {
		t.Fatal("strided view corrupted by serialization")
	}
}

func TestAbortFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		rank   int
		reason string
	}{
		{3, "crashed at step 5"},
		{-1, "transport closed"},
	} {
		rank, reason, err := decodeAbort(encodeAbort(tc.rank, tc.reason))
		if err != nil {
			t.Fatal(err)
		}
		if rank != tc.rank || reason != tc.reason {
			t.Fatalf("abort (%d,%q), want (%d,%q)", rank, reason, tc.rank, tc.reason)
		}
	}
}

func TestRetxFrameRoundTrip(t *testing.T) {
	src, dst, tag, err := decodeRetx(encodeRetx(2, 5, "U/0/1"))
	if err != nil {
		t.Fatal(err)
	}
	if src != 2 || dst != 5 || tag != "U/0/1" {
		t.Fatalf("retx (%d,%d,%q)", src, dst, tag)
	}
}

func TestReadFrameRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameData, []byte("x")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = frameVersion + 1
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("foreign version accepted: %v", err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	raw := []byte{0xff, 0xff, 0xff, 0xff, frameVersion, frameData}
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("oversized length prefix accepted: %v", err)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	// A body of maxFrameSize-2 bytes is the largest one frame carries;
	// one byte more, or a size past 4 GiB that would wrap the uint32
	// length prefix, is refused before anything is written.
	for _, c := range []struct {
		n  int
		ok bool
	}{{maxFrameSize - 2, true}, {maxFrameSize - 1, false}, {1<<32 + 10, false}} {
		if err := checkFrameSize(c.n); (err == nil) != c.ok {
			t.Errorf("checkFrameSize(%d) = %v, want ok=%v", c.n, err, c.ok)
		}
	}
	if err := writeFrame(io.Discard, frameData, nil); err != nil {
		t.Fatalf("empty body refused: %v", err)
	}
	// The engine splits scatter and gather shares at MaxPackBytes, so its
	// largest pack fits one data frame even under a long tag.
	tag := "driftckpt/999999/4294967295/4294967295"
	if err := checkFrameSize(dataBodySize(tag, engine.MaxPackBytes/8, 1)); err != nil {
		t.Fatalf("a full engine pack does not fit one frame: %v", err)
	}
}

func TestDecodeDataRejectsTruncation(t *testing.T) {
	m := matrix.New(2, 2)
	body := encodeData(0, 1, "t", m)
	for _, n := range []int{0, 8, 11, len(body) - 1} {
		if _, _, _, _, err := decodeData(body[:n]); err == nil {
			t.Fatalf("truncated data frame (%d bytes) accepted", n)
		}
	}
}

// overflowBody is a 21-byte data frame body whose 2³¹×2³¹ shape claims
// 2⁶⁵ payload bytes — zero after wrapping in int arithmetic, which once
// matched its empty payload and sent the decoder into a huge allocation.
func overflowBody() []byte {
	return []byte{
		0, 0, 0, 0, // src
		0, 0, 0, 1, // dst
		0, 0, 0, 1, 't', // tag
		0x80, 0, 0, 0, // rows 2³¹
		0x80, 0, 0, 0, // cols 2³¹
	}
}

func TestDecodeDataRejectsOverflowingShape(t *testing.T) {
	for _, body := range [][]byte{
		overflowBody(),
		// 0×2³¹ is consistent with an empty payload but no frame can
		// carry a dimension that large.
		append(overflowBody()[:13], 0, 0, 0, 0, 0x80, 0, 0, 0),
		// One row of 2³¹ columns against an 8-byte payload.
		append(overflowBody()[:13], 0, 0, 0, 1, 0x80, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8),
	} {
		if _, _, _, _, err := decodeData(body); err == nil || !strings.Contains(err.Error(), "payload") {
			t.Fatalf("overflowing shape accepted: %v", err)
		}
	}
}

// FuzzDecodeData feeds arbitrary data frame bodies to decodeData: every
// input must end in a message or a clean error, never a panic, and an
// accepted body must re-encode to exactly itself.
func FuzzDecodeData(f *testing.F) {
	valid := encodeData(3, 1, "scatter/1", matrix.NewFromSlice(2, 1, []float64{1, math.Inf(-1)}))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                               // truncated payload
	f.Add(valid[:11])                                         // truncated header
	f.Add(encodeData(0, 0, "", matrix.New(0, 0)))             // empty message
	f.Add(overflowBody())                                     // 2³¹×2³¹ wraps to a zero-byte payload
	f.Add(append(overflowBody()[:8], 0xff, 0xff, 0xff, 0xff)) // tag length beyond the body
	f.Fuzz(func(t *testing.T, body []byte) {
		src, dst, tag, m, err := decodeData(body)
		if err != nil {
			return
		}
		if out := encodeData(src, dst, tag, m); !bytes.Equal(out, body) {
			t.Fatalf("%d-byte body decodes to %d×%d under %q but re-encodes to %d bytes", len(body), m.Rows(), m.Cols(), tag, len(out))
		}
	})
}

// TestReadFrameAllocatesAsBytesArrive: a frame that claims the maximum
// length but carries a few bytes fails as a truncated read, having
// allocated for what arrived rather than for what it claimed.
func TestReadFrameAllocatesAsBytesArrive(t *testing.T) {
	raw := []byte{0x40, 0x00, 0x00, 0x00, frameVersion, frameData}
	raw = append(raw, make([]byte, 100)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated 1 GiB frame: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("truncated 1 GiB frame allocated %d bytes", grew)
	}
}

// TestReadFrameBodySizes round-trips bodies around the growth steps of the
// incremental body read, and checks that a body cut short after its first
// byte fails with io.ErrUnexpectedEOF.
func TestReadFrameBodySizes(t *testing.T) {
	for _, n := range []int{0, 1, frameChunk - 1, frameChunk, frameChunk + 1, 3*frameChunk + 7} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, frameRetx, want); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		ftype, got, err := readFrame(bytes.NewReader(raw))
		if err != nil || ftype != frameRetx || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte body: type %d, %d bytes, err %v", n, ftype, len(got), err)
		}
		for _, cut := range []int{7, 6 + (n+1)/2, len(raw) - 1} {
			if cut <= 6 || cut >= len(raw) {
				continue
			}
			if _, _, err := readFrame(bytes.NewReader(raw[:cut])); err != io.ErrUnexpectedEOF {
				t.Fatalf("%d-byte body cut at %d: err %v, want %v", n, cut, err, io.ErrUnexpectedEOF)
			}
		}
	}
}

// FuzzReadFrame feeds arbitrary byte streams to readFrame: every input must
// end in a frame or a clean error, never a panic or a hang, and an accepted
// frame must re-encode to exactly the bytes it was read from.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := writeFrame(&valid, frameData, encodeData(0, 1, "t", matrix.New(2, 2))); err != nil {
		f.Fatal(err)
	}
	raw := valid.Bytes()
	f.Add(append([]byte(nil), raw...))
	f.Add(raw[:3])                                                        // truncated header
	f.Add(raw[:len(raw)-5])                                               // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameVersion, frameData})        // oversized length
	f.Add([]byte{0x40, 0x00, 0x00, 0x00, frameVersion, frameData, 1})     // maximum length, one byte sent
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, frameVersion})                   // length below the header
	f.Add(append([]byte{0x00, 0x00, 0x00, 0x03, frameVersion + 1}, 1, 2)) // wrong version
	f.Fuzz(func(t *testing.T, data []byte) {
		ftype, body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, ftype, body); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("frame (type %d, %d-byte body) does not re-encode to its input", ftype, len(body))
		}
	})
}
