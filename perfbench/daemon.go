package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xmrobust/internal/serve"
	"xmrobust/internal/store"
)

// daemon_fuzz: nproc clients, each on one keep-alive loopback
// connection, submit feedback campaigns to an in-process campaign service
// (xmrobustd's serve.Server behind net/http), follow each over its SSE
// stream to the end event, then fetch the merged log.

var daemonFuzz = workload{
	name:      "daemon_fuzz",
	plan:      "feedback:1000",
	clients:   func(nproc int) int { return nproc },
	setup:     setupDaemon,
	reference: logReference,
}

type daemonFixture struct {
	e       *env
	srv     *serve.Server
	httpSrv *http.Server
	base    string
	clients []*http.Client
	served  chan struct{}

	// scopes maps a service campaign number to its trace scope; the
	// store wrapper reaches it through the campaign directory name.
	mu     sync.Mutex
	scopes map[int]*scope
}

func setupDaemon(e *env) (fixture, error) {
	f := &daemonFixture{e: e, scopes: map[int]*scope{}, served: make(chan struct{})}
	var st store.Store = store.Local()
	if e.tr != nil {
		st = wrapStore(st, f.scopeForName)
	}
	srv, err := serve.New(serve.Config{
		DataDir:   filepath.Join(e.work, "daemon"),
		MaxActive: e.workers,
		Store:     st,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.srv = srv
	f.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.base = "http://" + ln.Addr().String()
	go func() {
		defer close(f.served)
		f.httpSrv.Serve(ln)
	}()
	for i := 0; i < e.workers; i++ {
		c := &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
		f.clients = append(f.clients, c)
		// Open the client's connection now: it is reused by every
		// request the client makes.
		resp, err := c.Get(f.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("GET /healthz: %s", resp.Status)
			}
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *daemonFixture) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if herr := f.httpSrv.Shutdown(ctx); err == nil {
		err = herr
	}
	<-f.served
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
	return err
}

// scopeFor returns the trace scope of service campaign id.
func (f *daemonFixture) scopeFor(id int) *scope {
	if f.e.tr == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	sc := f.scopes[id]
	if sc == nil {
		sc = f.e.tr.newScope(id)
		f.scopes[id] = sc
	}
	return sc
}

// scopeForName maps a store object under <data>/cNNNNNN/ to its
// campaign's scope.
func (f *daemonFixture) scopeForName(name string) *scope {
	dir := filepath.Base(filepath.Dir(name))
	id, err := strconv.Atoi(strings.TrimPrefix(dir, "c"))
	if err != nil || !strings.HasPrefix(dir, "c") {
		return nil
	}
	return f.scopeFor(id)
}

func (f *daemonFixture) op(_, c int, seed int64, ref *reference) opResult {
	res := opResult{seed: seed}
	client := f.clients[c]
	start := time.Now()
	st, err := f.submit(client, c, seed)
	submitted := time.Now()
	if err != nil {
		res.err = err
		res.latency = time.Since(start)
		return res
	}
	id, _ := strconv.Atoi(strings.TrimPrefix(st.ID, "c"))
	sc := f.scopeFor(id)
	opStart := sc.now() - int64(submitted.Sub(start))
	sc.leaf(spanSubmit, opStart, opStart+int64(submitted.Sub(start)), 0)

	var (
		records map[int][]byte
		log     []byte
	)
	sc.phase(spanSSE, 0, func() { records, err = f.follow(client, sc, st.ID, start, submitted, &res) })
	if err == nil {
		sc.phase(spanLog, 0, func() { log, err = get(client, f.base+"/v1/campaigns/"+st.ID+"/log") })
	}
	res.latency = time.Since(start)
	sc.leaf(spanOp, opStart, sc.now(), 0)
	res.tests = len(records)
	os.RemoveAll(st.Dir)
	if err != nil {
		res.err = err
		return res
	}
	res.err = checkDaemon(ref, records, log)
	return res
}

// checkDaemon requires the SSE-reassembled records, the served log and
// the reference log to be byte-identical.
func checkDaemon(ref *reference, records map[int][]byte, log []byte) error {
	if !bytes.Equal(reassemble(records), log) {
		return errors.New("SSE records differ from the served log")
	}
	if err := ref.checkLogBytes(log); err != nil {
		return fmt.Errorf("served log: %w", err)
	}
	return nil
}

func (f *daemonFixture) submit(client *http.Client, c int, seed int64) (serve.Status, error) {
	body, _ := json.Marshal(serve.Submission{Plan: f.e.plan, Seed: seed, Client: fmt.Sprintf("perfbench-%d", c)})
	resp, err := client.Post(f.base+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	var st serve.Status
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusCreated {
		return st, fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return st, json.Unmarshal(data, &st)
}

// follow reads a campaign's SSE stream to its end event, returning the
// record lines by seq.
func (f *daemonFixture) follow(client *http.Client, sc *scope, id string, start, submitted time.Time, res *opResult) (map[int][]byte, error) {
	resp, err := client.Get(f.base + "/v1/campaigns/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("GET events: %s", resp.Status)
	}
	cr := &countingReader{r: resp.Body}
	br := bufio.NewReaderSize(cr, 64<<10)
	records := map[int][]byte{}
	var (
		kind       string
		queued     = true
		lastRecord int64
	)
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return nil, fmt.Errorf("SSE stream ended without an end event: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			res.sseEvents++
			switch kind {
			case "status":
				if queued && bytes.Contains(data, []byte(`"state":"running"`)) {
					queued = false
					q0 := sc.now() - int64(time.Since(submitted))
					sc.leaf(spanQueue, q0, sc.now(), 0)
				}
			case "record":
				if res.firstRecord == 0 {
					res.firstRecord = time.Since(start)
				}
				seq, ok := recordSeq(data)
				if !ok {
					return nil, fmt.Errorf("record event without a seq: %.80s", data)
				}
				if bytes.Contains(data, []byte(`"run_err":`)) {
					return nil, fmt.Errorf("harness-error record %d", seq)
				}
				records[seq] = append([]byte(nil), data...)
				lastRecord = sc.now()
			case "end":
				sc.leaf(spanEndLag, lastRecord, sc.now(), 0)
				res.sseBytes = cr.n - int64(br.Buffered())
				var end struct{ State, Error string }
				if err := json.Unmarshal(data, &end); err != nil {
					return nil, fmt.Errorf("bad end event %q: %w", data, err)
				}
				if end.State != string(serve.StateDone) {
					return nil, fmt.Errorf("campaign ended %s: %s", end.State, end.Error)
				}
				return records, nil
			}
		}
	}
}

// recordSeq reads the seq of a campaign-log record line. The wire format
// puts it right after func, so the first "seq" key is the record's own.
func recordSeq(line []byte) (int, bool) {
	const key = `"seq":`
	i := bytes.Index(line, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := line[i+len(key):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// reassemble orders record lines by seq into a JSON Lines log.
func reassemble(records map[int][]byte) []byte {
	seqs := make([]int, 0, len(records))
	for s := range records {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	var b bytes.Buffer
	for _, s := range seqs {
		b.Write(records[s])
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
