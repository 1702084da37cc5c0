package tuple

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

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
