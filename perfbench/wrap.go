package main

import (
	"io"
	"net"
	"sync/atomic"

	"xmrobust/internal/campaign"
	"xmrobust/internal/cover"
	"xmrobust/internal/sparc"
	"xmrobust/internal/store"
	"xmrobust/internal/target"
	"xmrobust/internal/testgen"
)

// The wrappers measure a layer from outside: each forwards every call to
// the wrapped value and records a span around it. The engine and the
// front ends look for optional capabilities by type assertion (batch
// execution, pool counters, the injection signature, the plan strategy,
// the feedback loop, Close), so a wrapper must expose a capability
// exactly when the wrapped value has it — one more or one fewer and the
// traced run would take another engine path than the untraced one.

// --- target -----------------------------------------------------------

type poolStatser interface{ PoolStats() sparc.PoolStats }

type injectSigner interface{ InjectSignature() string }

// tracedTarget times a target's Provision, Acquire, Execute and Release.
// On a remote worker (server) it records only executions, as
// remote.server_execute spans of whichever operation is current.
type tracedTarget struct {
	inner   target.Target
	scopeOf func() *scope
	server  bool
}

func (t *tracedTarget) Name() string { return t.inner.Name() }

func (t *tracedTarget) Provision(workers int) error {
	sc := t.scopeOf()
	start := sc.now()
	err := t.inner.Provision(workers)
	if !t.server {
		sc.leaf(spanProvision, start, sc.now(), 0)
	}
	return err
}

func (t *tracedTarget) Acquire() target.Slot {
	sc := t.scopeOf()
	start := sc.now()
	slot := t.inner.Acquire()
	if !t.server {
		sc.leaf(spanAcquire, start, sc.now(), 0)
	}
	return slot
}

func (t *tracedTarget) Release(slot target.Slot) {
	sc := t.scopeOf()
	start := sc.now()
	t.inner.Release(slot)
	if !t.server {
		sc.leaf(spanRelease, start, sc.now(), 0)
	}
}

func (t *tracedTarget) executeKind() spanKind {
	if t.server {
		return spanServerExecute
	}
	return spanExecute
}

func (t *tracedTarget) Execute(slot target.Slot, ds testgen.Dataset, spec target.RunSpec) target.Result {
	sc := t.scopeOf()
	start := sc.now()
	r := t.inner.Execute(slot, ds, spec)
	sc.leaf(t.executeKind(), start, sc.now(), 1)
	return r
}

// tracedBatch adds the BatchExecutor capability.
type tracedBatch struct {
	t  *tracedTarget
	be target.BatchExecutor
}

func (b tracedBatch) ExecuteBatch(slot target.Slot, batch []testgen.Dataset, spec target.RunSpec) []target.Result {
	sc := b.t.scopeOf()
	start := sc.now()
	rs := b.be.ExecuteBatch(slot, batch, spec)
	sc.leaf(b.t.executeKind(), start, sc.now(), int64(len(batch)))
	return rs
}

// wrapTarget wraps inner, preserving its optional capabilities.
func wrapTarget(inner target.Target, scopeOf func() *scope, server bool) target.Target {
	t := &tracedTarget{inner: inner, scopeOf: scopeOf, server: server}
	be, isB := inner.(target.BatchExecutor)
	ps, isP := inner.(poolStatser)
	is, isI := inner.(injectSigner)
	b := tracedBatch{t, be}
	switch {
	case isB && isP && isI:
		return struct {
			*tracedTarget
			tracedBatch
			poolStatser
			injectSigner
		}{t, b, ps, is}
	case isB && isP:
		return struct {
			*tracedTarget
			tracedBatch
			poolStatser
		}{t, b, ps}
	case isB && isI:
		return struct {
			*tracedTarget
			tracedBatch
			injectSigner
		}{t, b, is}
	case isP && isI:
		return struct {
			*tracedTarget
			poolStatser
			injectSigner
		}{t, ps, is}
	case isB:
		return struct {
			*tracedTarget
			tracedBatch
		}{t, b}
	case isP:
		return struct {
			*tracedTarget
			poolStatser
		}{t, ps}
	case isI:
		return struct {
			*tracedTarget
			injectSigner
		}{t, is}
	}
	return t
}

// --- plan source ------------------------------------------------------

type strategist interface{ Strategy() string }

type feedbacker interface {
	Feedback(pos int, cov *cover.Map)
}

// tracedSource times a campaign source's At.
type tracedSource struct {
	inner campaign.Source
	sc    *scope
}

func (s *tracedSource) Len() int            { return s.inner.Len() }
func (s *tracedSource) Fingerprint() string { return s.inner.Fingerprint() }

func (s *tracedSource) At(i int) testgen.Dataset {
	start := s.sc.now()
	ds := s.inner.At(i)
	s.sc.leaf(spanPlanAt, start, s.sc.now(), 0)
	return ds
}

// wrapSource wraps inner, preserving Strategy, Feedback (the
// campaign.FeedbackSource capability) and io.Closer.
func wrapSource(inner campaign.Source, sc *scope) campaign.Source {
	s := &tracedSource{inner: inner, sc: sc}
	st, isS := inner.(strategist)
	fb, isF := inner.(feedbacker)
	cl, isC := inner.(io.Closer)
	switch {
	case isS && isF && isC:
		return struct {
			*tracedSource
			strategist
			feedbacker
			io.Closer
		}{s, st, fb, cl}
	case isS && isF:
		return struct {
			*tracedSource
			strategist
			feedbacker
		}{s, st, fb}
	case isS && isC:
		return struct {
			*tracedSource
			strategist
			io.Closer
		}{s, st, cl}
	case isF && isC:
		return struct {
			*tracedSource
			feedbacker
			io.Closer
		}{s, fb, cl}
	case isS:
		return struct {
			*tracedSource
			strategist
		}{s, st}
	case isF:
		return struct {
			*tracedSource
			feedbacker
		}{s, fb}
	case isC:
		return struct {
			*tracedSource
			io.Closer
		}{s, cl}
	}
	return s
}

// --- store ------------------------------------------------------------

// tracedStore times checkpoint and log writes and every read, through the
// writers and readers it hands out too. scopeFor maps an object name to
// the operation it belongs to (nil: not traced).
type tracedStore struct {
	inner    store.Store
	scopeFor func(name string) *scope
}

func wrapStore(inner store.Store, scopeFor func(name string) *scope) store.Store {
	return &tracedStore{inner: inner, scopeFor: scopeFor}
}

func (s *tracedStore) read(name string, fn func() ([]byte, error)) ([]byte, error) {
	sc := s.scopeFor(name)
	start := sc.now()
	data, err := fn()
	sc.leaf(spanStoreRead, start, sc.now(), int64(len(data)))
	return data, err
}

func (s *tracedStore) writer(name string, kind spanKind, w io.WriteCloser, err error) (io.WriteCloser, error) {
	if err != nil {
		return nil, err
	}
	return &tracedWriter{w: w, sc: s.scopeFor(name), kind: kind}, nil
}

func (s *tracedStore) ReadCheckpoint(name string) ([]byte, error) {
	return s.read(name, func() ([]byte, error) { return s.inner.ReadCheckpoint(name) })
}

func (s *tracedStore) CreateCheckpoint(name string) (io.WriteCloser, error) {
	w, err := s.inner.CreateCheckpoint(name)
	return s.writer(name, spanCkptWrite, w, err)
}

func (s *tracedStore) AppendCheckpoint(name string) (io.WriteCloser, error) {
	w, err := s.inner.AppendCheckpoint(name)
	return s.writer(name, spanCkptWrite, w, err)
}

func (s *tracedStore) ListLogs(pattern string) ([]string, error) { return s.inner.ListLogs(pattern) }

func (s *tracedStore) OpenLog(name string) (io.ReadCloser, error) {
	r, err := s.inner.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &tracedReader{r: r, sc: s.scopeFor(name)}, nil
}

func (s *tracedStore) AppendLog(name string, trimTorn bool) (io.WriteCloser, error) {
	w, err := s.inner.AppendLog(name, trimTorn)
	return s.writer(name, spanLogWrite, w, err)
}

func (s *tracedStore) RemoveLog(name string) error { return s.inner.RemoveLog(name) }

func (s *tracedStore) ReadCorpus(name string) ([]byte, error) {
	return s.read(name, func() ([]byte, error) { return s.inner.ReadCorpus(name) })
}

func (s *tracedStore) AppendCorpus(name string) (io.WriteCloser, error) {
	w, err := s.inner.AppendCorpus(name)
	return s.writer(name, spanLogWrite, w, err)
}

type tracedWriter struct {
	w    io.WriteCloser
	sc   *scope
	kind spanKind
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := w.sc.now()
	n, err := w.w.Write(p)
	w.sc.leaf(w.kind, start, w.sc.now(), int64(n))
	return n, err
}

func (w *tracedWriter) Close() error { return w.w.Close() }

type tracedReader struct {
	r  io.ReadCloser
	sc *scope
}

func (r *tracedReader) Read(p []byte) (int, error) {
	start := r.sc.now()
	n, err := r.r.Read(p)
	r.sc.leaf(spanStoreRead, start, r.sc.now(), int64(n))
	return n, err
}

func (r *tracedReader) Close() error { return r.r.Close() }

// --- wire -------------------------------------------------------------

// countingListener counts every byte read from and written to the
// connections it accepts.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
