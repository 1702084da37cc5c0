package tuple

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Binary format
//
// Tuples are persisted and shipped in a compact little-endian binary frame:
//
//	magic   uint32  'E''M''T''1'
//	count   uint32  number of tuples
//	tuples  count × (t, x, y, s) float64
//	crc     uint32  CRC-32 (IEEE) of the tuple payload
//
// The frame is self-delimiting and integrity-checked, which the store's
// segment files rely on for crash recovery.

const (
	binaryMagic  = 0x454d5431 // "EMT1"
	tupleWireLen = 32         // four float64 fields
)

// ErrCorrupt is returned when a binary frame fails its integrity checks.
var ErrCorrupt = errors.New("tuple: corrupt binary frame")

// EncodedSize returns the exact number of bytes WriteBinary produces for n
// tuples.
func EncodedSize(n int) int { return 4 + 4 + n*tupleWireLen + 4 }

// AppendBinary appends the batch's binary frame to dst and returns the
// extended slice, so a caller that writes frame after frame (the store's
// segment log) builds each in memory it already owns.
func AppendBinary(dst []byte, b Batch) []byte {
	start := len(dst)
	dst = slices.Grow(dst, EncodedSize(len(b)))
	dst = binary.LittleEndian.AppendUint32(dst, binaryMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	for _, r := range b {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.T))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.X))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Y))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.S))
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start+8:]))
}

// WriteBinary writes the batch as one binary frame.
func WriteBinary(w io.Writer, b Batch) error {
	_, err := w.Write(AppendBinary(nil, b))
	return err
}

// ReadBinary reads one binary frame. It returns io.EOF when the reader is
// exhausted at a frame boundary, and ErrCorrupt (possibly wrapped) for
// malformed or truncated frames.
func ReadBinary(r io.Reader) (Batch, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != binaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	count := binary.LittleEndian.Uint32(hdr[4:])
	const maxFrameTuples = 64 << 20 / tupleWireLen // refuse absurd frames (>64 MiB)
	if count > maxFrameTuples {
		return nil, fmt.Errorf("%w: frame claims %d tuples", ErrCorrupt, count)
	}
	payload := make([]byte, int(count)*tupleWireLen+4)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	body := payload[:len(payload)-4]
	wantCRC := binary.LittleEndian.Uint32(payload[len(payload)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	b := make(Batch, count)
	for i := range b {
		off := i * tupleWireLen
		b[i] = Raw{
			T: math.Float64frombits(binary.LittleEndian.Uint64(body[off+0:])),
			X: math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:])),
			Y: math.Float64frombits(binary.LittleEndian.Uint64(body[off+16:])),
			S: math.Float64frombits(binary.LittleEndian.Uint64(body[off+24:])),
		}
	}
	return b, nil
}

// ContainsFrame reports whether an intact binary frame parses at any
// byte offset within data. The store's recovery uses it to distinguish a
// torn tail (nothing valid follows the corruption — the write
// discipline's legitimate leftover) from real mid-stream damage, where
// intact acknowledged frames would otherwise be silently dropped.
func ContainsFrame(data []byte) bool {
	var magic [4]byte
	binary.LittleEndian.PutUint32(magic[:], binaryMagic)
	for off := 0; ; off++ {
		i := bytes.Index(data[off:], magic[:])
		if i < 0 {
			return false
		}
		off += i
		if _, err := ReadBinary(bytes.NewReader(data[off:])); err == nil {
			return true
		}
	}
}

// CSV format
//
// The CSV codec mirrors the flat files produced by the OpenSense ingestion
// pipeline: a header line "t,x,y,s" followed by one tuple per line.

// csvHeader is the expected first line of a tuple CSV stream.
const csvHeader = "t,x,y,s"

// WriteCSV writes the batch in CSV form, including the header line.
func WriteCSV(w io.Writer, b Batch) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(csvHeader + "\n"); err != nil {
		return err
	}
	for _, r := range b {
		line := strconv.FormatFloat(r.T, 'g', -1, 64) + "," +
			strconv.FormatFloat(r.X, 'g', -1, 64) + "," +
			strconv.FormatFloat(r.Y, 'g', -1, 64) + "," +
			strconv.FormatFloat(r.S, 'g', -1, 64) + "\n"
		if _, err := bw.WriteString(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV reads a CSV stream produced by WriteCSV (or hand-authored with
// the same header).
func ReadCSV(r io.Reader) (Batch, error) {
	var b Batch
	_, err := StreamCSV(r, 0, func(chunk Batch) error {
		b = append(b, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// DefaultCSVChunk is the batch size StreamCSV emits when the caller does
// not choose one: large enough to amortize per-batch costs, small enough
// that an arbitrarily long stream never materializes in memory.
const DefaultCSVChunk = 4096

// StreamCSV incrementally parses a tuple CSV stream, invoking emit with
// successive batches of at most chunk tuples (chunk <= 0 uses
// DefaultCSVChunk). It returns the total tuple count. Unlike ReadCSV, the
// whole stream is never held in memory, so it is the codec behind
// streaming ingestion of month-scale deployment files. An emit error
// aborts the scan and is returned unwrapped.
func StreamCSV(r io.Reader, chunk int, emit func(Batch) error) (int, error) {
	if chunk <= 0 {
		chunk = DefaultCSVChunk
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return 0, err
		}
		return 0, errors.New("tuple: empty CSV stream")
	}
	if got := strings.TrimSpace(sc.Text()); got != csvHeader {
		return 0, fmt.Errorf("tuple: unexpected CSV header %q, want %q", got, csvHeader)
	}
	var (
		b     Batch
		total int
	)
	lineNo := 1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) != 4 {
			return total, fmt.Errorf("tuple: line %d: want 4 fields, got %d", lineNo, len(fields))
		}
		var vals [4]float64
		for i, f := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return total, fmt.Errorf("tuple: line %d field %d: %v", lineNo, i+1, err)
			}
			vals[i] = v
		}
		b = append(b, Raw{T: vals[0], X: vals[1], Y: vals[2], S: vals[3]})
		if len(b) >= chunk {
			if err := emit(b); err != nil {
				return total, err
			}
			total += len(b)
			// Fresh backing array: emit may retain the batch it received.
			b = make(Batch, 0, chunk)
		}
	}
	if err := sc.Err(); err != nil {
		return total, err
	}
	if len(b) > 0 {
		if err := emit(b); err != nil {
			return total, err
		}
		total += len(b)
	}
	return total, nil
}
