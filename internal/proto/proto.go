// Package proto runs the EnviroMeter wire protocol over real TCP
// connections. The demo's smartphones spoke to the server over GPRS/3G
// data services; this package is the deployment-grade transport those
// clients would use: length-prefixed frames carrying wire.Binary messages,
// one request/response exchange at a time per connection, with deadlines
// so a stalled radio link cannot wedge the server.
//
// Frame layout (little endian):
//
//	length  uint32   payload byte count (not including this prefix)
//	payload []byte   one wire.Binary message
//
// # Buffers
//
// Every connection end — the server's serve loop and frame writer, and
// Client — owns one read and one write buffer and uses them for every
// frame: a frame is read into the read buffer and decoded out of it
// (wire.Binary.Decode never returns a message that aliases its input), a
// message is encoded by wire.Binary.AppendEncode into the write buffer
// behind its own length prefix and leaves in a single Write. A buffer that
// one large frame grew past wire.KeepBytes is dropped after that frame, so
// an idle connection holds at most wire.KeepBytes per direction.
//
// A served request lives for one exchange. When the handler is a Releaser,
// the bulk of each request — a batch's query points, an upload's tuples —
// is decoded into memory lent from the wire pools, and the answers whose
// size grows with the request are lent by the handler; both go back in one
// Release call once the response frame is written. Until then the handler
// may read the request. What must outlive the exchange it copies (a
// cluster node's replica frames), or it does not give back (an upload it
// did not acknowledge may still be queued; wire.Recycle keeps it out of
// the pool). A Client's decoded answers, and the requests a handler that
// is not a Releaser receives, are the receiver's to keep.
package proto

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// MaxFrameBytes bounds a single message. Everyday frames are a 256-tuple
// ingest (8 KiB), a 64×64 heatmap response (≈ 7 KiB predictively coded,
// 34 KiB at worst) and a model response for a MaxK-region cover (a few
// KiB); the largest legitimate ones are the cluster's forwarded ingest and
// catch-up chunks, which it sizes to stay just under this bound. 1 MiB
// stops hostile length prefixes.
const MaxFrameBytes = 1 << 20

// keep returns what a connection holds on to of a buffer it has finished
// with: the buffer emptied, or nothing when one frame grew it past
// wire.KeepBytes, so the everyday frames are read and written without
// allocating while the rare large one does not stay pinned to a connection
// that may idle for minutes.
func keep(buf []byte) []byte {
	if cap(buf) > wire.KeepBytes {
		return nil
	}
	return buf[:0]
}

// ErrFrameTooLarge is returned for frames exceeding MaxFrameBytes.
var ErrFrameTooLarge = errors.New("proto: frame exceeds maximum size")

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame into a buffer of its own.
// io.EOF is returned unwrapped when the stream ends cleanly at a frame
// boundary.
func ReadFrame(r io.Reader) ([]byte, error) { return readFrame(r, nil) }

// readFrame is ReadFrame into buf's memory: the returned payload aliases
// buf unless the frame did not fit, in which case it has a new array of
// exactly the frame's size. The caller decodes the payload and then keeps
// it as its next buf.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	// The length prefix is read into buf too: a local array would escape
	// through the io.Reader and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: truncated frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: truncated frame payload: %w", err)
	}
	return payload, nil
}

// frameReader reads the frames of one connection into the read buffer the
// connection keeps. lend decodes a message's bulk into lent memory
// (wire.Binary.DecodeLent): the serve loop of a Releaser sets it for its
// requests, and a Client for its answers.
type frameReader struct {
	r    io.Reader
	buf  []byte
	lend bool
}

// next reads one frame and decodes it out of the buffer, which is free
// for the next frame as soon as the decode returns. err reports a failed
// read (io.EOF unwrapped at a frame boundary): the connection is done. bad
// reports a frame that arrived whole but is not a message.
func (fr *frameReader) next() (m wire.Message, bad, err error) {
	payload, err := readFrame(fr.r, fr.buf)
	if err != nil {
		return nil, nil, err
	}
	if fr.lend {
		m, bad = wire.Binary.DecodeLent(payload)
	} else {
		m, bad = wire.Binary.Decode(payload)
	}
	fr.buf = keep(payload)
	return m, bad, nil
}

// appendFrame appends m's whole frame — the length prefix and, encoded in
// place behind it, the payload — to dst, ready to leave in one Write.
func appendFrame(dst []byte, m wire.Message) ([]byte, error) {
	start := len(dst)
	out, err := wire.Binary.AppendEncode(append(dst, 0, 0, 0, 0), m)
	if err != nil {
		return dst, err
	}
	n := len(out) - start - 4
	if n > MaxFrameBytes {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(out[start:], uint32(n))
	return out, nil
}

// Handler answers protocol requests (implemented by server.Engine).
type Handler interface {
	HandleMessage(req wire.Message) wire.Message
}

// CtxHandler is an optional Handler extension. When the handler
// implements it, the serve loop calls HandleMessageCtx with a context
// bound to the server's lifetime, so long-running handlers (scatter-
// gather in the cluster router, store waits) stop when the server shuts
// down instead of finishing into a closed connection.
type CtxHandler interface {
	HandleMessageCtx(ctx context.Context, req wire.Message) wire.Message
}

// Releaser is an optional Handler extension that lends the memory of an
// exchange instead of allocating it per request, both ways. When the
// handler implements it, the serve loop decodes every request's bulk — a
// batch's points, an upload's tuples — into memory lent from the wire
// pools (wire.Binary.DecodeLent), and calls Release with each request and
// the response HandleMessage or HandleMessageCtx returned for it, exactly
// once, after writing that response's frame — whether the write succeeded
// or failed, so nothing is lent twice and nothing is lost. From then on
// the handler may reuse what both refer to (wire.Recycle), and so a
// handler must not keep any part of a request past Release: what it needs
// longer, it copies. A stream's ack and pushes, and the serve loop's own
// answer to a malformed frame, are never released. A handler that is not
// a Releaser is lent nothing: the requests it is handed are its own.
type Releaser interface {
	Release(req, resp wire.Message)
}

// ServerConfig tunes the TCP server.
type ServerConfig struct {
	// IdleTimeout closes connections with no request for this long
	// (default 2 minutes). Mobile clients reconnect cheaply; dangling
	// radio sessions must not pin server resources.
	IdleTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	return c
}

// Server accepts TCP connections and serves the wire protocol.
type Server struct {
	cfg     ServerConfig
	handler Handler
	ln      net.Listener

	// baseCtx is the root context handed to ctx-aware handlers; Close
	// cancels it so in-flight handlers unwind during shutdown.
	baseCtx  context.Context
	baseStop context.CancelFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on ln. It returns immediately; Close stops it.
func Serve(ln net.Listener, h Handler, cfg ServerConfig) *Server {
	//ctxcheck:allow the server owns the root context; Close cancels it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg.withDefaults(),
		handler:  h,
		ln:       ln,
		baseCtx:  ctx,
		baseStop: cancel,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address (for clients in tests).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	w := &frameWriter{conn: conn, timeout: s.cfg.IdleTimeout}
	var stops []func()
	defer func() {
		conn.Close()
		for _, stop := range stops {
			stop()
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	streamer, canStream := s.handler.(CtxStreamer)
	ctxHandler, canCtx := s.handler.(CtxHandler)
	releaser, canRelease := s.handler.(Releaser)
	rd := frameReader{r: conn, lend: canRelease}
	for {
		// A connection carrying a push stream idles legitimately between
		// pushes; only request/response connections get the idle timeout.
		deadline := time.Now().Add(s.cfg.IdleTimeout)
		if len(stops) > 0 {
			deadline = time.Time{}
		}
		if err := conn.SetReadDeadline(deadline); err != nil {
			return
		}
		req, bad, err := rd.next()
		if err != nil {
			return // EOF, timeout, or garbage: drop the connection
		}
		var resp wire.Message
		if bad != nil {
			resp = wire.ErrorResponse{Msg: "malformed request: " + bad.Error()}
		} else {
			var (
				ack      wire.Message
				run      func(emit func(wire.Message) error)
				stop     func()
				streamOK bool
			)
			if canStream {
				ack, run, stop, streamOK = streamer.HandleStreamCtx(s.baseCtx, req)
			}
			if streamOK {
				stops = append(stops, stop)
				if err := w.write(ack); err != nil {
					return
				}
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					run(w.write)
					// Stream over (server side ended it, or a push
					// write failed): close the connection so the
					// client sees EOF instead of silence.
					conn.Close()
				}()
				continue
			}
			if canCtx {
				resp = ctxHandler.HandleMessageCtx(s.baseCtx, req)
			} else {
				resp = s.handler.HandleMessage(req)
			}
		}
		err = w.write(resp)
		if errors.Is(err, ErrFrameTooLarge) {
			// Nothing was written, and the request was fine: answer that the
			// response does not fit one frame, typed, and keep serving.
			err = w.write(wire.ErrorResponse{Code: wire.CodeTooLarge, Msg: err.Error()})
		}
		if canRelease && bad == nil {
			releaser.Release(req, resp)
		}
		if err != nil {
			return
		}
	}
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.ln.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.baseStop()
	s.wg.Wait()
	return err
}

// Client is a TCP protocol client. It satisfies cluster.Transport, so the
// mobile-object strategies (baseline, model-cache) run unchanged over a
// real network. It is safe for concurrent use; exchanges are serialized
// on the single connection, matching the one-outstanding-request radio
// behaviour the link model assumes.
type Client struct {
	cfg ServerConfig // timeout reused client-side

	mu   sync.Mutex
	conn net.Conn
	rd   frameReader // reads conn
	wbuf []byte      // the connection's write buffer
	// broken is the failed write or read that closed conn: after one, the
	// connection may still deliver the answer to the request that failed,
	// which the next exchange would take for its own.
	broken error
}

// Dial connects to an EnviroMeter TCP server.
func Dial(addr string, cfg ServerConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return &Client{cfg: cfg.withDefaults(), conn: conn, rd: frameReader{r: conn, lend: true}}, nil
}

// Exchange performs one request/response round trip. A failed write or
// read — a timeout included — closes the connection, and every later
// Exchange fails: the request/response pairing on it can no longer be
// trusted. The answer belongs to the caller (cluster.Transport's
// contract): it is decoded with wire.Binary.DecodeLent, so a batch
// answer's items and a raster's values are lent from the wire pools, and
// a caller done reading them may hand the answer to wire.Recycle. A caller
// that keeps it never does.
func (c *Client) Exchange(req wire.Message) (wire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if c.broken != nil {
			return nil, fmt.Errorf("proto: connection closed after an earlier failure: %w", c.broken)
		}
		return nil, errors.New("proto: client closed")
	}
	frame, err := appendFrame(c.wbuf[:0], req)
	if err != nil {
		return nil, fmt.Errorf("proto: encode request: %w", err)
	}
	c.wbuf = keep(frame)
	if err := c.conn.SetDeadline(time.Now().Add(c.cfg.IdleTimeout)); err != nil {
		return nil, c.fail(fmt.Errorf("proto: set deadline: %w", err))
	}
	//lockcheck:allow mu is what makes an exchange own the connection and its buffers; the deadline bounds the write
	if _, err := c.conn.Write(frame); err != nil {
		return nil, c.fail(fmt.Errorf("proto: write: %w", err))
	}
	resp, bad, err := c.rd.next()
	if err != nil {
		return nil, c.fail(fmt.Errorf("proto: read: %w", err))
	}
	if bad != nil {
		return nil, fmt.Errorf("proto: decode response: %w", bad)
	}
	return resp, nil
}

// fail closes the connection after err, which it returns; c.mu is held.
func (c *Client) fail(err error) error {
	c.conn.Close()
	c.conn, c.broken = nil, err
	return err
}

// Close closes the connection. Further Exchanges fail.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
