package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"gdn"
)

// key derives a random source's key from the seed and the purpose of
// the draws, so independent inputs do not shift when another changes.
func key(seed uint64, purpose string) [32]byte {
	var k [32]byte
	binary.LittleEndian.PutUint64(k[:8], seed)
	copy(k[8:], purpose)
	return k
}

// stream returns a deterministic random source for one purpose of one
// seed.
func stream(seed uint64, purpose string) *rand.Rand {
	return rand.New(rand.NewChaCha8(key(seed, purpose)))
}

// content returns n incompressible bytes drawn from the seed.
func content(seed uint64, purpose string, n int) []byte {
	b := make([]byte, n)
	_, _ = rand.NewChaCha8(key(seed, purpose)).Read(b) // never fails
	return b
}

// etagOf is the ETag the HTTPD must send for content: its SHA-256,
// computed here independently of the program.
func etagOf(b []byte) string {
	sum := sha256.Sum256(b)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// edge is one GDN-HTTPD served over loopback HTTP and the client that
// talks to it over a single kept-alive connection.
type edge struct {
	srv *httptest.Server
	c   *http.Client
	buf []byte // body copy buffer, reused
}

func newEdge(w *gdn.World, site string) (*edge, error) {
	h, err := w.HTTPD(site, gdn.HTTPDConfig{})
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(h)
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &edge{srv: srv, c: &http.Client{Transport: tr}, buf: make([]byte, 256<<10)}, nil
}

func (e *edge) close() {
	e.c.CloseIdleConnections()
	e.srv.Close()
}

// reply is what one request returned, checked by the caller.
type reply struct {
	status int
	header http.Header
	ttfb   time.Duration // until the response headers arrived
	n      int64         // body bytes read
}

// do sends one request and streams the body into check (nil: the body
// must be empty). It returns an error only when the exchange itself
// failed or the body disagreed with check.
func (e *edge) do(method, path string, hdr map[string]string, check io.Writer) (reply, error) {
	start := time.Now()
	req, err := http.NewRequest(method, e.srv.URL+path, nil)
	if err != nil {
		return reply{}, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := e.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	rep := reply{status: resp.StatusCode, header: resp.Header, ttfb: time.Since(start)}
	for {
		n, rerr := resp.Body.Read(e.buf)
		if n > 0 {
			rep.n += int64(n)
			if check == nil {
				return rep, mismatchf("%s %s: %d-byte body where none belongs", method, path, n)
			}
			if _, werr := check.Write(e.buf[:n]); werr != nil {
				return rep, werr
			}
		}
		if rerr == io.EOF {
			return rep, nil
		}
		if rerr != nil {
			return rep, fmt.Errorf("%s %s: body after %d bytes: %w", method, path, rep.n, rerr)
		}
	}
}

// expect compares a streamed body with the generator's own copy.
type expect struct {
	want []byte
	off  int
}

func (x *expect) reset(want []byte) { x.want, x.off = want, 0 }

func (x *expect) Write(p []byte) (int, error) {
	if x.off+len(p) > len(x.want) {
		return 0, mismatchf("body runs past %d expected bytes", len(x.want))
	}
	if !bytes.Equal(p, x.want[x.off:x.off+len(p)]) {
		return 0, mismatchf("body differs from the input within bytes %d..%d", x.off, x.off+len(p))
	}
	x.off += len(p)
	return len(p), nil
}

// complete reports a body that ended short of the expected bytes.
func (x *expect) complete() error {
	if x.off != len(x.want) {
		return mismatchf("body ended after %d of %d bytes", x.off, len(x.want))
	}
	return nil
}

// collect keeps a body (directory pages) in a reused buffer.
type collect struct{ b []byte }

func (c *collect) Write(p []byte) (int, error) {
	c.b = append(c.b, p...)
	return len(p), nil
}

// getFile fetches a whole file and checks status, length, ETag and
// every byte against want.
func (e *edge) getFile(url string, want []byte, etag string, x *expect) (reply, error) {
	x.reset(want)
	rep, err := e.do(http.MethodGet, url, nil, x)
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, mismatchf("GET %s: status %d, want 200", url, rep.status)
	}
	if err := x.complete(); err != nil {
		return rep, err
	}
	return rep, checkHeaders(rep, url, int64(len(want)), etag)
}

// getRange fetches [off, off+n) of file and checks the 206, its
// Content-Range, its length, the file's ETag and the bytes.
func (e *edge) getRange(url string, file []byte, off, n int64, etag string, x *expect) (reply, error) {
	x.reset(file[off : off+n])
	rng := "bytes=" + strconv.FormatInt(off, 10) + "-" + strconv.FormatInt(off+n-1, 10)
	rep, err := e.do(http.MethodGet, url, map[string]string{"Range": rng}, x)
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusPartialContent {
		return rep, mismatchf("GET %s %s: status %d, want 206", url, rng, rep.status)
	}
	if err := x.complete(); err != nil {
		return rep, err
	}
	wantCR := fmt.Sprintf("bytes %d-%d/%d", off, off+n-1, len(file))
	if got := rep.header.Get("Content-Range"); got != wantCR {
		return rep, mismatchf("GET %s %s: Content-Range %q, want %q", url, rng, got, wantCR)
	}
	return rep, checkHeaders(rep, url, n, etag)
}

func checkHeaders(rep reply, url string, length int64, etag string) error {
	if got := rep.header.Get("Content-Length"); got != strconv.FormatInt(length, 10) {
		return mismatchf("%s: Content-Length %q, want %d", url, got, length)
	}
	if got := rep.header.Get("ETag"); got != etag {
		return mismatchf("%s: ETag %s, want %s", url, got, etag)
	}
	return nil
}

// getGone checks that a removed package's URL answers 404.
func (e *edge) getGone(url string, sink *collect) (reply, error) {
	sink.b = sink.b[:0]
	rep, err := e.do(http.MethodGet, url, nil, sink)
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusNotFound {
		return rep, mismatchf("GET %s after remove: status %d, want 404", url, rep.status)
	}
	return rep, nil
}
