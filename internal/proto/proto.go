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

// MaxFrameBytes bounds a single message. The largest legitimate message is
// a model response for a MaxK-region cover (a few KB); 1 MiB leaves two
// orders of magnitude of headroom while stopping hostile length prefixes.
const MaxFrameBytes = 1 << 20

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

// ReadFrame reads one length-prefixed frame. io.EOF is returned unwrapped
// when the stream ends cleanly at a frame boundary.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("proto: truncated frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("proto: truncated frame payload: %w", err)
	}
	return payload, nil
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
	streamer, canStream := s.handler.(Streamer)
	ctxStreamer, canStreamCtx := s.handler.(CtxStreamer)
	ctxHandler, canCtx := s.handler.(CtxHandler)
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
		payload, err := ReadFrame(conn)
		if err != nil {
			return // EOF, timeout, or garbage: drop the connection
		}
		req, err := wire.Binary.Decode(payload)
		var resp wire.Message
		if err != nil {
			resp = wire.ErrorResponse{Msg: "malformed request: " + err.Error()}
		} else {
			var (
				ack      wire.Message
				run      func(emit func(wire.Message) error)
				stop     func()
				streamOK bool
			)
			if canStreamCtx {
				ack, run, stop, streamOK = ctxStreamer.HandleStreamCtx(s.baseCtx, req)
			} else if canStream {
				ack, run, stop, streamOK = streamer.HandleStream(req)
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
		if err := w.write(resp); err != nil {
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

// Client is a TCP protocol client. It satisfies client.Transport, so the
// mobile-object strategies (baseline, model-cache) run unchanged over a
// real network. It is safe for concurrent use; exchanges are serialized
// on the single connection, matching the one-outstanding-request radio
// behaviour the link model assumes.
type Client struct {
	cfg ServerConfig // timeout reused client-side

	mu   sync.Mutex
	conn net.Conn
}

// Dial connects to an EnviroMeter TCP server.
func Dial(addr string, cfg ServerConfig) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("proto: dial %s: %w", addr, err)
	}
	return &Client{cfg: cfg.withDefaults(), conn: conn}, nil
}

// Exchange performs one request/response round trip.
func (c *Client) Exchange(req wire.Message) (wire.Message, error) {
	payload, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, fmt.Errorf("proto: encode request: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, errors.New("proto: client closed")
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.cfg.IdleTimeout)); err != nil {
		return nil, err
	}
	if err := WriteFrame(c.conn, payload); err != nil {
		return nil, fmt.Errorf("proto: write: %w", err)
	}
	respPayload, err := ReadFrame(c.conn)
	if err != nil {
		return nil, fmt.Errorf("proto: read: %w", err)
	}
	resp, err := wire.Binary.Decode(respPayload)
	if err != nil {
		return nil, fmt.Errorf("proto: decode response: %w", err)
	}
	return resp, nil
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
