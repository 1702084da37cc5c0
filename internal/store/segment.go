package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/colblock"
	"repro/internal/tuple"
)

// Segment frames
//
// A segment file is the write-ahead log: a frame per durable Append (a
// batch over colblock.MaxBlockTuples takes several), in append order, each
// a column block of the checkpoint's coding behind a magic and a length:
//
//	magic   u32  "EMW4"
//	length  u32  bytes in the block
//	block        count u32 | T, X, Y, S columns | crc u32
//
// On a sensor fleet's uploads that is ≈ 22.2 B a tuple
// (TestSegmentBytesPerTupleFleet). Segments of earlier releases hold
// frames of the raw tuple coding, "EMT1" and 32 B a tuple: replay refuses
// one with ErrCheckpointFormat, and a segment the checkpoint covers is
// never read.

const (
	frameMagic  = 0x454d5734 // "EMW4"
	frameHeader = 8
	// rawMagic opens a frame of the raw tuple coding: "EMT1" as the
	// little-endian u32 those releases wrote lays it out.
	rawMagic = "1TME"
)

var (
	errFrame    = errors.New("store: corrupt segment frame")
	errRawFrame = errors.New("store: segment frame of the raw tuple coding")
)

// appendFrame appends b to dst as one frame and returns the extended
// slice. It grows dst at most once, and not at all when dst has room for
// the frame's worst case.
func appendFrame(dst []byte, b []tuple.Raw) []byte {
	start := len(dst)
	dst = slices.Grow(dst, frameHeader+colblock.MaxPackedLen(len(b))+4)
	dst = colblock.AppendBlock(dst[:start+frameHeader], b)
	binary.LittleEndian.PutUint32(dst[start:], frameMagic)
	binary.LittleEndian.PutUint32(dst[start+4:], uint32(len(dst)-start-frameHeader))
	return dst
}

// readFrame reads the next frame from r into blk and decodes its tuples
// into dst, growing each only when it is too small. It returns io.EOF
// when r ends at a frame boundary and errRawFrame at a frame of the raw
// tuple coding; any other error means what follows is not one whole,
// intact frame.
func readFrame(r io.Reader, blk []byte, dst tuple.Batch) ([]byte, tuple.Batch, error) {
	// The header is read into blk too: an array handed to r would escape.
	blk = slices.Grow(blk[:0], frameHeader)[:frameHeader]
	if _, err := io.ReadFull(r, blk); err != nil {
		if errors.Is(err, io.EOF) {
			return blk, dst[:0], io.EOF
		}
		return blk, dst[:0], fmt.Errorf("%w: header: %v", errFrame, err)
	}
	n := int64(binary.LittleEndian.Uint32(blk[4:]))
	switch {
	case string(blk[:4]) == rawMagic:
		return blk, dst[:0], errRawFrame
	case binary.LittleEndian.Uint32(blk) != frameMagic || n > int64(colblock.MaxPackedLen(colblock.MaxBlockTuples)+4):
		return blk, dst[:0], fmt.Errorf("%w: header %x", errFrame, blk)
	}
	blk = slices.Grow(blk[:0], int(n))[:n]
	if _, err := io.ReadFull(r, blk); err != nil {
		return blk, dst[:0], fmt.Errorf("%w: block: %v", errFrame, err)
	}
	dst, err := colblock.DecodeBlock(dst[:0], blk)
	return blk, dst, err
}

// containsFrame reports whether an intact frame starts at any byte
// offset within data. Recovery uses it to tell a torn tail (nothing
// intact follows the corruption — the write discipline's legitimate
// leftover) from damage in the middle of a segment, behind which intact
// acknowledged frames would otherwise be dropped without a word.
func containsFrame(data []byte) bool {
	magic := binary.LittleEndian.AppendUint32(nil, frameMagic)
	for off := 0; ; off++ {
		i := bytes.Index(data[off:], magic)
		if i < 0 {
			return false
		}
		off += i
		if _, _, err := readFrame(bytes.NewReader(data[off:]), nil, nil); err == nil {
			return true
		}
	}
}
