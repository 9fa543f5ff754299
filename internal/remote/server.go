package remote

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"xmrobust/internal/apispec"
	"xmrobust/internal/campaign"
	"xmrobust/internal/dict"
	"xmrobust/internal/obs"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// Server wraps one local target behind the wire protocol: every accepted
// connection gets a hello, then a stream of lease requests, each executed
// on the wrapped target and answered with campaign-log records.
// Connections pipeline — a request is handled in its own goroutine,
// bounded by the worker pool — so one slow lease never stalls the link.
type Server struct {
	// Target executes the leases; it may be any registered backend
	// (sim, phantom, diff:..., inject:...). Provision is called once with
	// Workers before the first request executes.
	Target target.Target
	// Workers bounds concurrent lease execution (default 1).
	Workers int
	// ExitAfter, when positive, makes the server call OnExit once that
	// many tests have executed — before the crossing request's response
	// is written. It deterministically simulates a worker dying mid-lease
	// (the lease's client never hears back), the scenario lease hand-back
	// and re-execution exist for; see the remote-smoke make target.
	ExitAfter int
	// OnExit is called when ExitAfter trips (required with ExitAfter).
	OnExit func()
	// Logf, when set, receives one line per accepted connection and per
	// refused request.
	Logf func(format string, args ...any)
	// Obs, when non-nil, publishes the worker's metrics (tests executed,
	// open connections, wire bytes) and live progress — the worker side
	// of the observability spine.
	Obs *obs.Obs

	provisionOnce sync.Once
	provisionErr  error
	sem           chan struct{}
	executed      atomic.Int64
	exitOnce      sync.Once
	met           *obs.WorkerMetrics // set in provision; nil handles when obs off

	// header and dict are the spec and value dictionary every request
	// executes against, built once in provision: they are read-only, so
	// concurrent requests share them.
	header *apispec.Header
	dict   *dict.Dictionary

	draining atomic.Bool
	connWG   sync.WaitGroup

	connsMu sync.Mutex
	open    map[net.Conn]struct{}
	ln      net.Listener
}

// Listen binds addr, starts serving in a background goroutine, and
// returns the bound address — the in-process form of running
// cmd/xmworker, used by benchmarks and tests. Provisioning failures
// surface here, synchronously. Stop the server with Close.
func (s *Server) Listen(addr string) (string, error) {
	if err := s.provision(); err != nil {
		return "", fmt.Errorf("remote: provision %s: %w", s.Target.Name(), err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops a Listen-started server: the listener stops accepting and
// every live connection drops.
func (s *Server) Close() {
	if s.ln != nil {
		s.ln.Close()
	}
	s.CloseConnections()
}

// CloseConnections drops every live connection — the in-process analogue
// of the worker dying (cmd/xmworker's OnExit simply exits). Clients see
// their in-flight leases fail and hand them to another worker.
func (s *Server) CloseConnections() {
	s.connsMu.Lock()
	for conn := range s.open {
		conn.Close()
	}
	s.connsMu.Unlock()
}

func (s *Server) track(conn net.Conn) {
	s.connsMu.Lock()
	if s.open == nil {
		s.open = map[net.Conn]struct{}{}
	}
	s.open[conn] = struct{}{}
	s.connsMu.Unlock()
	s.met.Connections.Add(1)
}

func (s *Server) untrack(conn net.Conn) {
	s.connsMu.Lock()
	delete(s.open, conn)
	s.connsMu.Unlock()
	s.met.Connections.Add(-1)
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// provision prepares the wrapped target for the configured parallelism,
// once across every connection.
func (s *Server) provision() error {
	s.provisionOnce.Do(func() {
		if s.Workers <= 0 {
			s.Workers = 1
		}
		s.sem = make(chan struct{}, s.Workers)
		s.header, s.dict = apispec.Default(), dict.Builtin()
		s.met = obs.NewWorkerMetrics(s.Obs.Registry())
		s.Obs.Prog().Begin(0, 0)
		s.provisionErr = s.Target.Provision(s.Workers)
	})
	return s.provisionErr
}

// Serve accepts connections until the listener closes, handling each in
// its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	if err := s.provision(); err != nil {
		return fmt.Errorf("remote: provision %s: %w", s.Target.Name(), err)
	}
	s.connsMu.Lock()
	s.ln = ln
	s.connsMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.logf("connection from %s", conn.RemoteAddr())
		// Track before handing off so a Shutdown between accept and the
		// goroutine's first read still reaches this connection.
		s.track(conn)
		s.connWG.Add(1)
		go func(conn net.Conn) {
			defer s.connWG.Done()
			s.handleConn(conn)
		}(conn)
	}
}

// Shutdown drains the server gracefully: the listener stops accepting,
// every open connection stops reading new frames (its pending read is
// unblocked by an immediate read deadline), in-flight requests finish
// executing and write their responses, and only then do the connections
// close. It returns once every connection handler has exited. Clients
// treat the subsequent connection loss like any dead worker: unanswered
// leases hand back and re-execute elsewhere.
func (s *Server) Shutdown() {
	s.draining.Store(true)
	s.connsMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.open {
		conn.SetReadDeadline(time.Now())
	}
	s.connsMu.Unlock()
	s.connWG.Wait()
}

// Draining reports whether Shutdown has begun — how a serving loop
// distinguishes a graceful drain's listener-closed error from a fault.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleConn speaks the protocol on one connection: hello, then a loop
// of pipelined lease requests until the peer hangs up (or Shutdown
// breaks the read loop; requests already read still answer).
func (s *Server) handleConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	var wmu sync.Mutex // responses from concurrent leases interleave frames, never bytes
	hello := encodeJSON(Hello{Proto: ProtoVersion, Target: s.Target.Name()})
	wmu.Lock()
	err := WriteFrame(conn, hello)
	wmu.Unlock()
	if err != nil {
		return
	}
	s.met.WireTx.Add(uint64(len(hello)) + frameOverhead)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		s.met.WireRx.Add(uint64(len(payload)) + frameOverhead)
		wg.Add(1)
		go func(payload []byte) {
			defer wg.Done()
			s.handleRequest(conn, &wmu, payload)
		}(payload)
	}
}

// handleRequest executes one lease and writes its response frame.
func (s *Server) handleRequest(conn net.Conn, wmu *sync.Mutex, payload []byte) {
	if s.ExitAfter > 0 && int(s.executed.Load()) >= s.ExitAfter {
		// Already dying: a dead worker answers nothing.
		return
	}
	var req execRequest
	if err := unmarshalRequest(payload, &req); err != nil {
		s.logf("refusing request: %v", err)
		s.respond(conn, wmu, respHeader{ID: req.ID, Err: err.Error()}, nil)
		return
	}
	spec := specFromWire(req.Spec, s.header, s.dict)
	datasets := make([]testgen.Dataset, 0, len(req.Tests))
	for _, wt := range req.Tests {
		ds, err := testFromWire(wt, spec.Header)
		if err != nil {
			s.respond(conn, wmu, respHeader{ID: req.ID, Err: err.Error()}, nil)
			return
		}
		datasets = append(datasets, ds)
	}
	codec, err := campaign.NewCodec("raw")
	if err != nil {
		s.respond(conn, wmu, respHeader{ID: req.ID, Err: err.Error()}, nil)
		return
	}

	s.sem <- struct{}{}
	var results []target.Result
	if be, ok := s.Target.(target.BatchExecutor); ok {
		slot := s.Target.Acquire()
		results = be.ExecuteBatch(slot, datasets, spec)
		s.Target.Release(slot)
	} else {
		results = make([]target.Result, 0, len(datasets))
		for _, ds := range datasets {
			slot := s.Target.Acquire()
			results = append(results, s.Target.Execute(slot, ds, spec))
			s.Target.Release(slot)
		}
	}
	<-s.sem
	s.met.Executed.Add(uint64(len(results)))
	s.Obs.Prog().Done(len(results))

	records := make([][]byte, 0, len(results))
	for i, r := range results {
		rec := campaign.ToRecord(req.Tests[i].Pos, r)
		line, err := codec.AppendEncode(nil, &rec)
		if err != nil {
			s.respond(conn, wmu, respHeader{ID: req.ID, Err: err.Error()}, nil)
			return
		}
		records = append(records, append(line, '\n'))
	}
	if s.ExitAfter > 0 {
		if total := s.executed.Add(int64(len(req.Tests))); int(total) >= s.ExitAfter {
			// Die without responding: the client sees the connection drop
			// with this lease in flight and must re-execute it elsewhere.
			s.exitOnce.Do(s.OnExit)
			return
		}
	}
	s.respond(conn, wmu, respHeader{ID: req.ID, N: len(records)}, records)
}

// respond writes one response frame: the header line, then the records.
func (s *Server) respond(conn net.Conn, wmu *sync.Mutex, hdr respHeader, records [][]byte) {
	payload := append(encodeJSON(hdr), '\n')
	for _, rec := range records {
		payload = append(payload, rec...)
	}
	wmu.Lock()
	defer wmu.Unlock()
	if err := WriteFrame(conn, payload); err != nil {
		s.logf("response %d: %v", hdr.ID, err)
		return
	}
	s.met.WireTx.Add(uint64(len(payload)) + frameOverhead)
}

// unmarshalRequest decodes a request frame.
func unmarshalRequest(payload []byte, req *execRequest) error {
	if err := json.Unmarshal(payload, req); err != nil {
		return fmt.Errorf("remote: bad request frame: %w", err)
	}
	return nil
}
