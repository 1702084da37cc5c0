//go:build unix

package colblock

import (
	"errors"
	"os"
	"syscall"
)

// mapFile memory-maps f read-only. A checkpoint file is immutable and
// installed atomically by rename, so a mapping never observes a partial
// write; a mapping of a since-deleted file stays valid until unmapped,
// which is what lets the store keep serving lazy windows across
// compactions.
func mapFile(f *os.File, size int64) (Source, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, errors.New("colblock: file size not mappable")
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return &mmapSource{data: data}, nil
}

type mmapSource struct {
	data []byte
}

func (s *mmapSource) ReadSpan(_ []byte, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || n > int64(len(s.data))-off {
		return nil, ErrCorrupt
	}
	return s.data[off : off+n], nil
}

func (s *mmapSource) Size() int64  { return int64(len(s.data)) }
func (s *mmapSource) Mapped() bool { return true }

func (s *mmapSource) Close() error {
	data := s.data
	s.data = nil
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
