package remote

import (
	"bufio"
	"errors"
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
)

// Server wraps one local target behind the wire protocol: every accepted
// connection gets a hello, then a stream of lease requests, each executed
// on the wrapped target and answered with campaign-log records.
//
// Connections pipeline. Each connection's read loop reads request frames
// and hands them to Workers long-lived executor goroutines of that
// connection, which decode, execute and answer them, so one slow lease
// never stalls the link and no goroutine is started per request (an
// executor keeps the stack it grew decoding and encoding). A server-wide
// semaphore of Workers slots bounds execution across all connections.
// Responses from one connection's executors interleave whole frames:
// each is built in one buffer and written in one call under the
// connection's write lock.
type Server struct {
	// Target executes the leases; it may be any registered backend
	// (sim, phantom, diff:..., inject:...). Provision is called once with
	// Workers before the first request executes.
	Target target.Target
	// Workers bounds concurrent lease execution across every connection,
	// and is the number of executors each connection runs (default 1).
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
	codec         campaign.Codec     // raw: leases and results travel as its record lines

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
		s.codec, s.provisionErr = campaign.NewCodec("raw")
		if s.provisionErr != nil {
			return
		}
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
// breaks the read loop; requests already read still answer, and the
// connection closes once the executors have drained them).
func (s *Server) handleConn(conn net.Conn) {
	defer s.untrack(conn)
	defer conn.Close()
	hello := encodeJSON(Hello{Proto: ProtoVersion, Target: s.Target.Name()})
	if err := WriteFrame(conn, hello); err != nil {
		return
	}
	s.met.WireTx.Add(uint64(len(hello)) + frameOverhead)

	sc := &serverConn{conn: conn}
	reqs := make(chan *[]byte)
	var wg sync.WaitGroup
	for i := 0; i < s.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.executor(sc, reqs)
		}()
	}
	defer wg.Wait()
	defer close(reqs)
	br := bufio.NewReader(conn)
	for {
		bp := getFrameBuf()
		payload, err := readFrame(br, *bp)
		if err != nil {
			putFrameBuf(bp)
			return
		}
		*bp = payload
		s.met.WireRx.Add(uint64(len(payload)) + frameOverhead)
		reqs <- bp
	}
}

// serverConn is one accepted connection's write side: executors
// interleave response frames under wmu, never bytes.
type serverConn struct {
	conn net.Conn
	wmu  sync.Mutex
}

// executor answers requests of one connection until its read loop ends.
// Its response frame buffer lives as long as it does.
func (s *Server) executor(sc *serverConn, reqs <-chan *[]byte) {
	var out []byte
	for bp := range reqs {
		out = s.handleRequest(sc, *bp, out)
		putFrameBuf(bp)
	}
}

// handleRequest executes one lease and writes its response frame, built
// in out; it returns out for the next request.
func (s *Server) handleRequest(sc *serverConn, payload, out []byte) []byte {
	if s.ExitAfter > 0 && int(s.executed.Load()) >= s.ExitAfter {
		// Already dying: a dead worker answers nothing.
		return out
	}
	hdr, body, err := parseRequest(payload)
	if errors.Is(err, errNoID) {
		// Nothing to answer: drop the connection, so the client's
		// pending leases fail over instead of waiting for a reply.
		s.logf("refusing request: %v", err)
		sc.conn.Close()
		return out
	}
	if err != nil {
		return s.refuse(sc, out, hdr.ID, err)
	}
	datasets, err := decodeLease(body, hdr.N, s.header, s.codec)
	if err != nil {
		return s.refuse(sc, out, hdr.ID, err)
	}
	spec := specFromWire(hdr.Spec, s.header, s.dict)

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

	out, err = appendResponse(newFrame(out), hdr.ID, datasets, results, s.codec)
	if err != nil {
		return s.refuse(sc, out, hdr.ID, err)
	}
	if s.ExitAfter > 0 {
		if total := s.executed.Add(int64(len(datasets))); int(total) >= s.ExitAfter {
			// Die without responding: the client sees the connection drop
			// with this lease in flight and must re-execute it elsewhere.
			s.exitOnce.Do(s.OnExit)
			return out
		}
	}
	return s.respond(sc, hdr.ID, out)
}

// refuse answers a lease the worker cannot execute with its error, so
// the client fails the lease at once instead of waiting.
func (s *Server) refuse(sc *serverConn, out []byte, id uint64, err error) []byte {
	s.logf("refusing request %d: %v", id, err)
	return s.respond(sc, id, appendRespHeader(newFrame(out), respHeader{ID: id, Err: err.Error()}))
}

// respond seals and writes one response frame, turning a response too
// large for a frame into a refusal; it returns the frame's buffer.
func (s *Server) respond(sc *serverConn, id uint64, frame []byte) []byte {
	if err := sealFrame(frame); err != nil {
		frame = appendRespHeader(newFrame(frame), respHeader{ID: id, Err: err.Error()})
		sealFrame(frame) // a bare refusal is far below the limit
	}
	sc.wmu.Lock()
	_, err := sc.conn.Write(frame)
	sc.wmu.Unlock()
	if err != nil {
		s.logf("response %d: %v", id, err)
		return frame
	}
	s.met.WireTx.Add(uint64(len(frame)))
	return frame
}
