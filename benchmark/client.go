package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/proto"
	"repro/internal/wire"
)

// reply is what one operation returned: the decoded wire message, or
// the HTTP body.
type reply struct {
	msg  wire.Message
	body []byte // kept on request only
	size int    // bytes of the response frame or HTTP body
}

// countConn counts the bytes crossing a client socket.
type countConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// client is one closed-loop connection: a phone or a bus gateway that
// waits for each reply before sending the next request.
type client struct {
	rec *recorder // nil unless the run is traced

	// Binary TCP: the four public calls proto.Client.Exchange makes, on a
	// socket the benchmark owns so it can count the frames' bytes.
	conn net.Conn

	// HTTP/JSON: one keep-alive connection, counted at the socket so
	// headers are included.
	hc      *http.Client
	base    string
	counted *countConn
	scratch bytes.Buffer
}

func dialClient(w *workload, addr string, rec *recorder) (*client, error) {
	c := &client{rec: rec}
	if !w.http {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		c.conn = conn
		return c, nil
	}
	c.base = "http://" + addr
	c.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, address string) (net.Conn, error) {
			conn, err := (&net.Dialer{Timeout: 10 * time.Second}).DialContext(ctx, network, address)
			if err != nil {
				return nil, err
			}
			c.counted = &countConn{Conn: conn}
			return c.counted, nil
		},
	}}
	return c, nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

// do performs operation i and checks the reply's shape. It returns the
// bytes that crossed the socket. keep asks for the reply itself.
func (c *client) do(i int, o *op, keep bool) (wireBytes int, rep reply, err error) {
	if c.rec != nil && c.rec.on.Load() {
		defer c.rec.add("op", int32(i), c.rec.now())
	}
	if c.conn != nil {
		return c.doTCP(o)
	}
	return c.doHTTP(i, o, keep)
}

func (o *op) message() wire.Message {
	switch o.kind {
	case opRoute:
		return wire.BatchQueryRequest{Items: o.pts}
	case opHeatmap:
		return wire.HeatmapRequest{T: o.t, Pollutant: pollutant, Cols: heatmapSide, Rows: heatmapSide}
	case opModel:
		return wire.ModelRequest{T: o.t, Pollutant: pollutant}
	default:
		return wire.IngestRequest{Pollutant: pollutant, Tuples: o.tuples}
	}
}

func (c *client) doTCP(o *op) (int, reply, error) {
	msg, sent, received, err := c.exchange(o.message())
	if err != nil {
		return sent + received, reply{}, err
	}
	return sent + received, reply{msg: msg, size: received - 4}, checkReply(o, msg)
}

// exchange is one framed request/response round trip; it reports the
// bytes sent and received, frame headers included.
func (c *client) exchange(req wire.Message) (resp wire.Message, sent, received int, err error) {
	traced := c.rec != nil && c.rec.on.Load()
	var start int64
	if traced {
		start = c.rec.now()
	}
	payload, err := wire.Binary.Encode(req)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("encode: %w", err)
	}
	if traced {
		c.rec.add("client.encode", c.rec.opOf(req), start)
	}
	if err := c.conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return nil, 0, 0, err
	}
	if err := proto.WriteFrame(c.conn, payload); err != nil {
		return nil, 0, 0, fmt.Errorf("write: %w", err)
	}
	sent = 4 + len(payload)
	frame, err := proto.ReadFrame(c.conn)
	if err != nil {
		return nil, sent, 0, fmt.Errorf("read: %w", err)
	}
	received = 4 + len(frame)
	if traced {
		start = c.rec.now()
	}
	resp, err = wire.Binary.Decode(frame)
	if err != nil {
		return nil, sent, received, fmt.Errorf("decode: %w", err)
	}
	if traced {
		c.rec.add("client.decode", c.rec.opOf(req), start)
	}
	return resp, sent, received, nil
}

// checkReply rejects anything but a complete, error-free answer.
func checkReply(o *op, msg wire.Message) error {
	switch v := msg.(type) {
	case wire.ErrorResponse:
		return errors.New("server error: " + v.Msg)
	case wire.BatchQueryResponse:
		if o.kind != opRoute || len(v.Items) != len(o.pts) {
			return fmt.Errorf("route reply has %d items, want %d", len(v.Items), len(o.pts))
		}
		for _, it := range v.Items {
			if it.Err != "" {
				return errors.New("route point failed: " + it.Err)
			}
			if math.IsNaN(it.Value) || math.IsInf(it.Value, 0) {
				return errors.New("route point is not finite")
			}
		}
	case wire.HeatmapResponse:
		if o.kind != opHeatmap || len(v.Values) != heatmapSide*heatmapSide {
			return fmt.Errorf("heatmap reply has %d cells", len(v.Values))
		}
	case wire.ModelResponse:
		if o.kind != opModel || len(v.Centroids) == 0 || len(v.Coefs) != len(v.Centroids) {
			return errors.New("model reply is empty")
		}
	case wire.IngestResponse:
		if o.kind != opIngest || int(v.Ingested) != len(o.tuples) {
			return fmt.Errorf("ingest acked %d tuples, sent %d", v.Ingested, len(o.tuples))
		}
	default:
		return fmt.Errorf("unexpected reply %T", msg)
	}
	return nil
}

func (c *client) doHTTP(i int, o *op, keep bool) (int, reply, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, c.base+o.path, body)
	if err != nil {
		return 0, reply{}, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.rec != nil && c.rec.on.Load() {
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	// The transport dials on first use (and again if the server drops
	// the keep-alive connection): count from zero on a new socket.
	sock, before := c.counted, int64(0)
	if sock != nil {
		before = sock.n.Load()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, reply{}, err
	}
	c.scratch.Reset()
	_, err = c.scratch.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.counted != sock {
		before = 0
	}
	n := int(c.counted.n.Load() - before)
	if err != nil {
		return n, reply{}, fmt.Errorf("read body: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return n, reply{}, fmt.Errorf("%s %s: %s: %.200s", method, o.path, resp.Status, c.scratch.Bytes())
	}
	if c.scratch.Len() == 0 {
		return n, reply{}, errors.New("empty body")
	}
	rep := reply{size: c.scratch.Len()}
	if keep {
		rep.body = bytes.Clone(c.scratch.Bytes())
	}
	return n, rep, nil
}
