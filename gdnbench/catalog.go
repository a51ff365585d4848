package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"time"

	"gdn"
)

// catalog-browse: two clients at edges in two regions make Zipf(0.9)
// requests over about a thousand small packages spread over all six
// object servers: GETs, HEADs, conditional GETs, Ranges, directory
// pages and fresh user binds.
const (
	catDirs    = 24
	catPerDir  = 42 // catDirs*catPerDir = 1008 packages
	catZipfS   = 0.9
	catMaxRng  = 16 << 10
	catMinFile = 1 << 10
	catMaxFile = 64 << 10
)

// catMix is the exact make-up of every client round.
var catMix = []struct {
	kind  string
	count int
}{
	{"get", 800}, {"head", 200}, {"cond304", 200}, {"cond200", 100},
	{"range", 200}, {"page", 300}, {"bind", 200},
}

// catEdges are the two clients' sites, in different regions.
var catEdges = []string{"na-ny-cu", "ap-au-mu"}

// catFileNames are the two files of every package.
var catFileNames = []string{"README", "src.tgz"}

type catFile struct {
	pkg    int
	path   string
	url    string
	data   []byte
	etag   string
	digest [sha256.Size]byte
}

type catOp struct {
	kind   string
	file   int // index into files
	other  int // cond200: the file whose ETag is sent
	dir    int // page
	off, n int64
}

type catClient struct {
	edge  *edge
	ops   []catOp
	etags map[int]string // file → ETag from an earlier response
	x     expect
	page  collect
	mark  []int // page check: last round each package was listed
	gen   int
}

type catalog struct {
	w       *gdn.World
	names   []string // by package
	hosts   []string // object server site, by package
	files   []catFile
	dirs    []string
	dirPkgs [][]int // packages listed in each directory
	byRank  []int   // package by popularity rank, 0 most popular
	cl      []*catClient
}

func newCatalog(seed uint64) (workload, error) {
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		return nil, err
	}
	c := &catalog{w: w}
	if err := c.publish(seed); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *catalog) publish(seed uint64) error {
	sites := c.w.Sites()
	n := catDirs * catPerDir
	// The seed decides which package is how popular. Each package's
	// object server and file sizes follow from its popularity rank by a
	// fixed low-discrepancy sequence, so every seed puts the same mix of
	// sizes and of near and far servers behind the popular names.
	rank := stream(seed, "catalog-popularity").Perm(n)
	logMin, logMax := math.Log(catMinFile), math.Log(catMaxFile)
	for d := 0; d < catDirs; d++ {
		c.dirs = append(c.dirs, fmt.Sprintf("/cat/d%02d", d))
		c.dirPkgs = append(c.dirPkgs, nil)
	}
	c.byRank = make([]int, n)
	for p := 0; p < n; p++ {
		d, r := p%catDirs, rank[p]
		c.byRank[r] = p
		c.names = append(c.names, fmt.Sprintf("%s/pkg%04d", c.dirs[d], p))
		c.hosts = append(c.hosts, sites[r%len(sites)])
		c.dirPkgs[d] = append(c.dirPkgs[d], p)
		for j, fn := range catFileNames {
			u := frac(float64(r*len(catFileNames)+j+1) * golden)
			size := int(math.Exp(logMin + u*(logMax-logMin)))
			data := content(seed, fmt.Sprintf("cat-%d-%s", p, fn), size)
			c.files = append(c.files, catFile{pkg: p, path: fn, url: "/pkg" + c.names[p] + "/-/" + fn,
				data: data, etag: etagOf(data), digest: sha256.Sum256(data)})
		}
	}

	// Two moderators publish in parallel, one per processor.
	errs := make(chan error, 2) // one result per moderator
	for m := 0; m < 2; m++ {
		go func() {
			errs <- c.publishShare(m, 2)
		}()
	}
	for m := 0; m < 2; m++ {
		if err := <-errs; err != nil {
			return err
		}
	}

	for i, site := range catEdges {
		e, err := newEdge(c.w, site)
		if err != nil {
			return err
		}
		cl := &catClient{edge: e, etags: map[int]string{}, mark: make([]int, len(c.names))}
		cl.ops = c.plan(i, stream(seed, fmt.Sprintf("catalog-client-%d", i)))
		c.cl = append(c.cl, cl)
	}
	return nil
}

// publishShare creates every share-th package starting at first.
func (c *catalog) publishShare(first, share int) error {
	mod, err := c.w.Moderator("eu-nl-vu", fmt.Sprintf("catalog-moderator-%d", first))
	if err != nil {
		return err
	}
	for p := first; p < len(c.names); p += share {
		files := map[string][]byte{}
		for j := range catFileNames {
			f := c.files[p*len(catFileNames)+j]
			files[f.path] = f.data
		}
		scen := gdn.Scenario{Protocol: gdn.ProtocolClientServer, Servers: c.w.GOSAddrs(c.hosts[p])}
		if _, _, err := mod.CreatePackage(c.names[p], scen, gdn.Package{Files: files}); err != nil {
			return fmt.Errorf("publish %s: %w", c.names[p], err)
		}
	}
	return nil
}

// golden is the fractional golden ratio behind the low-discrepancy
// sequences that spread sizes, servers and Zipf draws evenly.
const golden = 0.6180339887498949

func frac(x float64) float64 { return x - math.Floor(x) }

// plan draws client ci's round. Which files a round touches and how
// many bytes its Ranges ask for do not depend on the seed: every
// operation type inverts the Zipf distribution over the popularity
// ranks at its own low-discrepancy sequence, starting at a point fixed
// by the client and the type, and alternates between the package's two
// files. So every seed moves the same bytes over the same paths, and
// only the package behind each rank, the contents, the order and the
// Range offsets change. Conditional requests name files a GET or HEAD of
// the round fetches, and the order puts each after that fetch, so their
// ETags come from an earlier response.
func (c *catalog) plan(ci int, rng *rand.Rand) []catOp {
	cdf := make([]float64, len(c.names))
	var total float64
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), catZipfS)
		cdf[r] = total
	}
	nf := len(catFileNames)
	// draw returns the next file for operation type k.
	u, drawn := make([]float64, len(catMix)), make([]int, len(catMix))
	for k := range u {
		u[k] = float64(ci*len(catMix)+k) / float64(len(catEdges)*len(catMix))
	}
	draw := func(k int) int {
		u[k] = frac(u[k] + golden)
		drawn[k]++
		return c.byRank[sort.SearchFloat64s(cdf, u[k]*total)]*nf + drawn[k]%nf
	}

	var ops []catOp
	fetched := map[int]bool{}
	for k, m := range catMix {
		for i := 0; i < m.count; i++ {
			op := catOp{kind: m.kind, file: draw(k)}
			switch m.kind {
			case "get", "head":
				fetched[op.file] = true
			case "page":
				op.dir = op.file / nf % catDirs
				op.file = 0
			case "range":
				size := int64(len(c.files[op.file].data))
				op.n = 1 + int64(frac(float64(i+1)*golden)*float64(min(catMaxRng, size)-1))
			}
			ops = append(ops, op)
		}
	}
	for i := range ops {
		if k := ops[i].kind; k == "cond304" || k == "cond200" {
			for !fetched[ops[i].file] {
				ops[i].file = draw(catKind(k))
			}
		}
		if ops[i].kind == "range" {
			ops[i].off = rng.Int64N(int64(len(c.files[ops[i].file].data)) - ops[i].n + 1)
		}
	}

	// The seed orders the round. The first two operations are GETs of
	// two distinct files, whose ETags the mismatching conditional GETs
	// send; any other conditional request waits for its file's first
	// GET or HEAD.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for want := 0; want < 2; want++ {
		for i := want; i < len(ops); i++ {
			if ops[i].kind == "get" && (want == 0 || ops[i].file != ops[0].file) {
				ops[want], ops[i] = ops[i], ops[want]
				break
			}
		}
	}
	out := make([]catOp, 0, len(ops))
	waiting := map[int][]catOp{}
	seen := map[int]bool{}
	for _, op := range ops {
		switch op.kind {
		case "cond304", "cond200":
			if op.kind == "cond200" {
				op.other = out[0].file
				if op.other == op.file {
					op.other = out[1].file
				}
			}
			if !seen[op.file] {
				waiting[op.file] = append(waiting[op.file], op)
				continue
			}
			out = append(out, op)
		case "get", "head":
			out = append(out, op)
			if !seen[op.file] {
				seen[op.file] = true
				out = append(out, waiting[op.file]...)
				delete(waiting, op.file)
			}
		default:
			out = append(out, op)
		}
	}
	return out
}

// catKind returns an operation type's index in catMix.
func catKind(kind string) int {
	for k, m := range catMix {
		if m.kind == kind {
			return k
		}
	}
	panic("unknown operation type " + kind)
}

func (c *catalog) clients() int      { return len(c.cl) }
func (c *catalog) world() *gdn.World { return c.w }

func (c *catalog) probe(lg *ledger) {
	f := c.files[0]
	probeWrites(lg, c.w, c.hosts[f.pkg], c.names[f.pkg], f.path, f.data)
}

func (c *catalog) round(ci int, rec *recorder, lg *ledger) {
	cl := c.cl[ci]
	site := catEdges[ci]
	for _, op := range cl.ops {
		f := &c.files[op.file]
		lg.begin()
		start := time.Now()
		rep, err := c.do(cl, site, op)
		took := time.Since(start)
		ttfb := rep.ttfb
		if op.kind == "bind" {
			ttfb = -1
		}
		rec.done(op.kind, took, ttfb, rep.n, err)
		lg.end(took)
		if lg == nil || err != nil {
			continue
		}
		ro := readOp{site: site, name: c.names[f.pkg], path: f.path, file: f.data,
			serveSite: c.hosts[f.pkg], took: took}
		switch op.kind {
		case "get", "cond200":
			ro.kind = opFull
		case "head":
			ro.kind = opHead
		case "cond304":
			ro.kind = opCond
		case "range":
			ro.kind, ro.off, ro.n = opRange, op.off, op.n
		case "page":
			ro = readOp{kind: opPage, site: site, name: c.dirs[op.dir], took: took}
		case "bind":
			ro.kind = opBind
		}
		lg.readOp(ro)
	}
}

// do runs one operation and checks its output.
func (c *catalog) do(cl *catClient, site string, op catOp) (reply, error) {
	f := &c.files[op.file]
	e := cl.edge
	switch op.kind {
	case "get":
		rep, err := e.getFile(f.url, f.data, f.etag, &cl.x)
		if err == nil {
			cl.etags[op.file] = rep.header.Get("ETag")
		}
		return rep, err
	case "head":
		rep, err := e.do(http.MethodHead, f.url, nil, nil)
		if err != nil {
			return rep, err
		}
		if rep.status != http.StatusOK {
			return rep, mismatchf("HEAD %s: status %d", f.url, rep.status)
		}
		if err := checkHeaders(rep, f.url, int64(len(f.data)), f.etag); err != nil {
			return rep, err
		}
		cl.etags[op.file] = rep.header.Get("ETag")
		return rep, nil
	case "cond304":
		tag := cl.etags[op.file]
		rep, err := e.do(http.MethodGet, f.url, map[string]string{"If-None-Match": tag}, nil)
		if err != nil {
			return rep, err
		}
		if rep.status != http.StatusNotModified {
			return rep, mismatchf("GET %s If-None-Match of its own earlier ETag: status %d, want 304", f.url, rep.status)
		}
		return rep, nil
	case "cond200":
		// The ETag of another file must not validate this one.
		cl.x.reset(f.data)
		rep, err := e.do(http.MethodGet, f.url, map[string]string{"If-None-Match": cl.etags[op.other]}, &cl.x)
		if err != nil {
			return rep, err
		}
		if rep.status != http.StatusOK {
			return rep, mismatchf("GET %s If-None-Match of another file's ETag: status %d, want 200", f.url, rep.status)
		}
		if err := cl.x.complete(); err != nil {
			return rep, err
		}
		return rep, checkHeaders(rep, f.url, int64(len(f.data)), f.etag)
	case "range":
		return e.getRange(f.url, f.data, op.off, op.n, f.etag, &cl.x)
	case "page":
		return c.page(cl, op.dir)
	case "bind":
		return reply{n: int64(len(f.data))}, c.bind(site, f)
	}
	return reply{}, fmt.Errorf("unknown operation %q", op.kind)
}

// page fetches a directory page and checks it lists exactly the
// packages published there.
func (c *catalog) page(cl *catClient, dir int) (reply, error) {
	cl.page.b = cl.page.b[:0]
	url := "/browse" + c.dirs[dir]
	rep, err := cl.edge.do(http.MethodGet, url, nil, &cl.page)
	if err != nil {
		return rep, err
	}
	if rep.status != http.StatusOK {
		return rep, mismatchf("GET %s: status %d", url, rep.status)
	}
	cl.gen++
	listed := 0
	body := cl.page.b
	prefix := []byte(`href="/pkg` + c.dirs[dir] + `/pkg`)
	for {
		i := bytes.Index(body, []byte(`href="`))
		if i < 0 {
			break
		}
		body = body[i:]
		if !bytes.HasPrefix(body, prefix) {
			end := bytes.IndexByte(body[6:], '"')
			return rep, mismatchf("%s links %q, outside the directory", url, body[6:6+max(end, 0)])
		}
		rest := body[len(prefix):]
		p, n := 0, 0
		for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
			p = p*10 + int(rest[n]-'0')
			n++
		}
		if n != 4 || n >= len(rest) || rest[n] != '"' || p >= len(c.names) || p%catDirs != dir {
			return rep, mismatchf("%s links a package that was never published there", url)
		}
		if cl.mark[p] == cl.gen {
			return rep, mismatchf("%s lists package %d twice", url, p)
		}
		cl.mark[p] = cl.gen
		listed++
		body = rest[n:]
	}
	if listed != len(c.dirPkgs[dir]) {
		return rep, mismatchf("%s lists %d packages, %d were published", url, listed, len(c.dirPkgs[dir]))
	}
	return rep, nil
}

// bind is a fresh user binding: resolve, bind, Stat and read the file
// through the typed stub.
func (c *catalog) bind(site string, f *catFile) error {
	stub, _, err := c.w.BindPackage(site, c.names[f.pkg])
	if err != nil {
		return err
	}
	defer stub.Close()
	fi, err := stub.Stat(f.path)
	if err != nil {
		return err
	}
	if fi.Size != int64(len(f.data)) || fi.Digest != f.digest {
		return mismatchf("Stat %s %s: size %d digest %x, want %d %x", c.names[f.pkg], f.path, fi.Size, fi.Digest[:6], len(f.data), f.digest[:6])
	}
	got, err := stub.GetFileContents(f.path)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, f.data) {
		return mismatchf("GetFileContents %s %s differs from the input", c.names[f.pkg], f.path)
	}
	return nil
}

func (c *catalog) close() {
	for _, cl := range c.cl {
		cl.edge.close()
	}
	c.w.Close()
}
