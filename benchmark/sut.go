package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proto"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// member is one node of the system under test. The end-to-end run
// builds it through the public facade (p set); the traced run assembles
// the same parts from the internal packages (st, eng, cnode set) so the
// benchmark's span wrappers sit at the layer boundaries.
type member struct {
	dir string
	p   *repro.Platform

	st    *store.Store
	eng   *server.Engine
	cnode *cluster.Node

	tcp io.Closer
}

// sut is the system under test for one workload: one node or a
// loopback cluster, durable, behind real sockets.
type sut struct {
	w       *workload
	root    string // temp dir holding every node's data dir
	members []*member
	addr    string // node 0: TCP address, or HTTP host:port
	httpSrv *http.Server
	rec     *recorder // nil on the facade path
}

// clusterRegion and clusterCells repeat the facade's defaults so the
// assembled cluster derives the ring the facade would.
var clusterRegion = repro.Rect{Min: repro.Point{X: -2500, Y: -1500}, Max: repro.Point{X: 5000, Y: 4000}}

const clusterCells = 16

func (w *workload) facadeConfig(dir string, addrs []string, id int) repro.Config {
	cfg := repro.Config{
		WindowSeconds: windowSeconds,
		Pollutants:    []repro.Pollutant{pollutant},
		Dir:           dir,
		Retain:        w.retain,
		Columnar:      repro.ColumnarConfig{Enabled: w.columnar},
	}
	if w.nodes > 1 {
		cfg.Cluster = repro.ClusterConfig{Nodes: addrs, NodeID: id, Replicas: w.replicas}
	}
	return cfg
}

// listen opens one loopback listener per node: the addresses must be
// known before any node is built.
func listen(n int) ([]net.Listener, []string, error) {
	lns, addrs := make([]net.Listener, n), make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs, nil
}

// openSUT brings the workload's deployment up on the data dirs under
// root (fresh, or holding a checkpointed store for a restart) and
// starts its listeners. rec selects the assembled, span-wrapped build.
func openSUT(w *workload, root string, rec *recorder) (*sut, error) {
	s := &sut{w: w, root: root, rec: rec}
	lns, addrs, err := listen(w.nodes)
	if err != nil {
		return nil, err
	}
	if rec == nil && !w.http {
		// The facade listens for itself: release the reserved ports.
		for _, ln := range lns {
			ln.Close()
		}
	}
	for i := 0; i < w.nodes; i++ {
		m := &member{dir: filepath.Join(root, fmt.Sprintf("node%d", i))}
		s.members = append(s.members, m)
		if rec == nil {
			err = s.openFacade(m, addrs, i, lns[i])
		} else {
			err = s.openAssembled(m, addrs, i, lns[i])
		}
		if err != nil {
			s.close()
			return nil, fmt.Errorf("open node %d: %w", i, err)
		}
	}
	s.addr = addrs[0]
	return s, nil
}

func (s *sut) openFacade(m *member, addrs []string, id int, ln net.Listener) error {
	p, err := repro.Open(s.w.facadeConfig(m.dir, addrs, id))
	if err != nil {
		return err
	}
	m.p = p
	if s.w.http {
		s.serveHTTP(ln, p.Handler())
		return nil
	}
	m.tcp, _, err = p.ListenTCP(addrs[id])
	return err
}

func (s *sut) serveHTTP(ln net.Listener, h http.Handler) {
	s.httpSrv = &http.Server{Handler: h}
	go s.httpSrv.Serve(ln) // returns ErrServerClosed when close stops it
}

// openAssembled builds the node the way the facade's Open and
// newClusterNode do, with span wrappers around the engine, the node's
// wire handler and its peer links.
func (s *sut) openAssembled(m *member, addrs []string, id int, ln net.Listener) error {
	w := s.w
	st, err := store.Open(store.Config{
		WindowLength: windowSeconds,
		Retain:       w.retain,
		Dir:          filepath.Join(m.dir, pollutant.String()),
		Columnar:     store.ColumnarConfig{Enabled: w.columnar},
	})
	if err != nil {
		return err
	}
	m.st = st
	eng, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{pollutant: st},
		core.Config{Pollutant: pollutant}, server.Options{})
	if err != nil {
		return err
	}
	m.eng = eng
	engine := spanHandler{inner: eng, rec: s.rec, name: "server.handle"}
	if w.http {
		s.serveHTTP(ln, spanMiddleware(server.NewAPI(eng), s.rec))
		eng.WarmPrime()
		return nil
	}
	var handler proto.Handler = engine
	if w.nodes > 1 {
		cells, err := cluster.Cells(clusterRegion, clusterCells, 1)
		if err != nil {
			return err
		}
		ring, err := cluster.NewRing(cluster.Desc{Nodes: addrs, Cells: cells, Replicas: w.replicas})
		if err != nil {
			return err
		}
		dial := func(addr string) (cluster.Transport, error) {
			c, err := proto.Dial(addr, proto.ServerConfig{})
			if err != nil {
				return nil, err
			}
			return spanTransport{inner: c, rec: s.rec}, nil
		}
		m.cnode, err = cluster.NewNode(cluster.NodeConfig{
			Ring:        ring,
			Self:        id,
			Local:       engine,
			Transports:  cluster.LazyTransports(ring, id, dial),
			Dial:        dial,
			Default:     pollutant,
			Pollutants:  []tuple.Pollutant{pollutant},
			Replication: cluster.ReplicationConfig{NewMirror: func() cluster.Handler { return newMirror(w) }},
		})
		if err != nil {
			return err
		}
		name := "peer.handle"
		if id == 0 {
			name = "cluster.handle"
		}
		handler = spanHandler{inner: m.cnode, rec: s.rec, name: name}
	}
	m.tcp = proto.Serve(ln, handler, proto.ServerConfig{})
	eng.WarmPrime()
	return nil
}

// newMirror is the facade's mirrorFactory: an in-memory engine with the
// primary's window length and retention.
func newMirror(w *workload) cluster.Handler {
	st, err := store.Open(store.Config{WindowLength: windowSeconds, Retain: w.retain})
	if err != nil {
		return failedMirror{err}
	}
	eng, err := server.NewMultiEngineOpts(map[tuple.Pollutant]*store.Store{pollutant: st},
		core.Config{Pollutant: pollutant}, server.Options{})
	if err != nil {
		st.Close()
		return failedMirror{err}
	}
	return eng
}

type failedMirror struct{ err error }

func (m failedMirror) HandleMessage(wire.Message) wire.Message {
	return wire.ErrorResponse{Msg: "replica: mirror engine: " + m.err.Error()}
}

// ingest feeds tuples through node 0, the way a preloading operator
// would: the cluster splits, forwards and replicates them.
func (s *sut) ingest(ctx context.Context, b tuple.Batch) error {
	m := s.members[0]
	switch {
	case m.p != nil:
		return m.p.Ingest(ctx, pollutant, b)
	case m.cnode != nil:
		return m.cnode.Ingest(ctx, pollutant, b)
	default:
		return m.eng.Ingest(ctx, pollutant, b)
	}
}

// touch makes every node hold a built cover for the window of time t.
func (s *sut) touch(ctx context.Context, t float64) error {
	m := s.members[0]
	var err error
	switch {
	case m.p != nil:
		_, err = m.p.Cover(ctx, pollutant, t)
	case m.cnode != nil:
		_, err = m.cnode.Model(ctx, pollutant, t)
	default:
		_, err = m.eng.CoverAt(ctx, pollutant, t)
	}
	return err
}

// quiesce waits until no node has background cover work left.
func (s *sut) quiesce() {
	for _, m := range s.members {
		if m.p != nil {
			m.p.WaitMaintenance()
		} else {
			m.eng.Scheduler().Wait()
		}
	}
}

func (s *sut) checkpoint() error {
	var errs []error
	for _, m := range s.members {
		if m.p != nil {
			errs = append(errs, m.p.Checkpoint())
		} else {
			errs = append(errs, m.eng.Checkpoint())
		}
	}
	return errors.Join(errs...)
}

// tuples is the number of retained tuples over all primaries.
func (s *sut) tuples() int {
	n := 0
	for _, m := range s.members {
		if m.p != nil {
			n += m.p.Len()
		} else {
			n += m.st.Len()
		}
	}
	return n
}

// diskBytes sums the files under the nodes' data dirs whose name starts
// with prefix ("" = every file).
func (s *sut) diskBytes(prefix string) (int64, error) {
	var total int64
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if !strings.HasPrefix(d.Name(), prefix) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// close stops listeners, then nodes, then stores, and waits for each.
func (s *sut) close() error {
	var errs []error
	if s.httpSrv != nil {
		errs = append(errs, s.httpSrv.Close())
	}
	for _, m := range s.members {
		if m.tcp != nil {
			errs = append(errs, m.tcp.Close())
		}
	}
	for _, m := range s.members {
		switch {
		case m.p != nil:
			errs = append(errs, m.p.Close())
		default:
			if m.cnode != nil {
				errs = append(errs, m.cnode.Close())
			}
			if m.eng != nil {
				errs = append(errs, m.eng.Close())
			}
			if m.st != nil {
				errs = append(errs, m.st.Close())
			}
		}
	}
	return errors.Join(errs...)
}

// destroy closes the system and removes its data.
func (s *sut) destroy() error {
	return errors.Join(s.close(), os.RemoveAll(s.root))
}
