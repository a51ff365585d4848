package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"gdn"
	"gdn/internal/modtool"
	"gdn/internal/pkgobj"
)

// release-publish: one moderator in eu publishes to a master/slave
// package replicated in three regions. Most operations are releases of
// a multi-MiB file that change a few chunks; the rest create a small
// package or remove the oldest one, which keeps the catalog size
// constant. Every write is read back through an edge in another region.
const (
	relName       = "/rel/app"
	relPath       = "app.bin"
	relFileSize   = 4 << 20
	relChanged    = 2       // chunks a release changes
	relPatch      = 4 << 10 // bytes changed in each of them
	relReleases   = 8       // releases per round, then one create and one remove
	relExtras     = 6       // small packages alive at any time
	relExtraPath  = "extra.bin"
	relModerator  = "eu-nl-vu"
	relEdge       = "ap-au-mu"
	relEdgeServer = "ap-jp-ut" // the replica nearest the edge
)

// relServers host the replicas: the master first, then one slave in
// each other region.
var relServers = []string{"eu-nl-vu", "na-ca-ucb", "ap-jp-ut"}

type extraPkg struct {
	name, url, etag string
	data            []byte
}

type publish struct {
	w      *gdn.World
	mod    *modtool.Tool
	edge   *edge
	scen   gdn.Scenario
	url    string
	file   []byte // the current release, as published
	etag   string
	rng    *rand.Rand
	extras []extraPkg // oldest first
	serial int
	x      expect
	gone   collect
	upload func(*pkgobj.Stub) error
}

func newPublish(seed uint64) (workload, error) {
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		return nil, err
	}
	p := &publish{w: w, rng: stream(seed, "release"), url: "/pkg" + relName + "/-/" + relPath}
	p.upload = func(s *pkgobj.Stub) error { return s.UploadFile(relPath, p.file) }
	if err := p.setup(seed); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *publish) setup(seed uint64) error {
	var err error
	if p.mod, err = p.w.Moderator(relModerator, "release-moderator"); err != nil {
		return err
	}
	p.scen = gdn.Scenario{Protocol: gdn.ProtocolMasterSlave, Servers: p.w.GOSAddrs(relServers...)}
	p.file = content(seed, "release-file", relFileSize)
	p.etag = etagOf(p.file)
	if _, _, err := p.mod.CreatePackage(relName, p.scen, gdn.Package{Files: map[string][]byte{relPath: p.file}}); err != nil {
		return fmt.Errorf("publish %s: %w", relName, err)
	}
	for i := 0; i < relExtras; i++ {
		x := p.nextExtra()
		if _, _, err := p.mod.CreatePackage(x.name, p.scen, gdn.Package{Files: map[string][]byte{relExtraPath: x.data}}); err != nil {
			return fmt.Errorf("publish %s: %w", x.name, err)
		}
		p.extras = append(p.extras, x)
	}
	p.edge, err = newEdge(p.w, relEdge)
	return err
}

// nextExtra draws the next small package: a fresh name (names are never
// reused) and 4–16 KiB of content.
func (p *publish) nextExtra() extraPkg {
	p.serial++
	name := fmt.Sprintf("/rel/extra/x%06d", p.serial)
	data := make([]byte, 4<<10+p.rng.IntN(12<<10))
	fill(p.rng, data)
	return extraPkg{name: name, url: "/pkg" + name + "/-/" + relExtraPath, etag: etagOf(data), data: data}
}

// mutate changes relPatch bytes inside each of n distinct chunks of
// data and returns the changed offsets.
func mutate(rng *rand.Rand, data []byte, n int) []int64 {
	const cs = pkgobj.DefaultChunkSize
	chunks := len(data) / cs
	var offs []int64
	for _, c := range rng.Perm(chunks)[:n] {
		off := int64(c*cs + rng.IntN(cs-relPatch))
		fill(rng, data[off:off+relPatch])
		offs = append(offs, off)
	}
	return offs
}

// fill overwrites b with bytes drawn from rng.
func fill(rng *rand.Rand, b []byte) {
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
}

func (p *publish) clients() int      { return 1 }
func (p *publish) world() *gdn.World { return p.w }
func (p *publish) probe(*ledger)     {}

func (p *publish) round(_ int, rec *recorder, lg *ledger) {
	for i := 0; i < relReleases; i++ {
		p.release(rec, lg)
	}
	p.create(rec, lg)
	p.remove(rec, lg)
}

// release publishes a new version of the file that changes a few
// chunks, then reads the changed bytes back at the far edge.
func (p *publish) release(rec *recorder, lg *ledger) {
	offs := mutate(p.rng, p.file, relChanged)
	p.etag = etagOf(p.file)
	lg.begin()
	start := time.Now()
	_, err := p.mod.UpdatePackage(relName, p.upload)
	wrote := time.Since(start)
	var rep reply
	var readBack int64
	var first time.Duration // the first read-back, the one the ledger repeats
	for i := 0; err == nil && i < len(offs); i++ {
		t := time.Now()
		var r reply
		r, err = p.edge.getRange(p.url, p.file, offs[i], relPatch, p.etag, &p.x)
		readBack += r.n
		if i == 0 {
			rep, first = r, time.Since(t)
		}
	}
	took := time.Since(start)
	rec.done("release", took, rep.ttfb, readBack, err)
	lg.end(took)
	if lg == nil || err != nil {
		return
	}
	lg.published("update", wrote)
	if err := lg.stage(relPath, p.file); err != nil {
		fatalf("%v", err)
	}
	lg.readOp(readOp{kind: opRange, site: relEdge, name: relName, path: relPath, file: p.file,
		off: offs[0], n: relPatch, serveSite: relEdgeServer, took: first})
}

// create publishes a new small package and reads it back at the edge.
func (p *publish) create(rec *recorder, lg *ledger) {
	x := p.nextExtra()
	lg.begin()
	start := time.Now()
	_, _, err := p.mod.CreatePackage(x.name, p.scen, gdn.Package{Files: map[string][]byte{relExtraPath: x.data}})
	wrote := time.Since(start)
	var rep reply
	if err == nil {
		rep, err = p.edge.getFile(x.url, x.data, x.etag, &p.x)
	}
	took := time.Since(start)
	rec.done("create", took, rep.ttfb, rep.n, err)
	lg.end(took)
	if err != nil {
		return
	}
	p.extras = append(p.extras, x)
	lg.published("create", wrote)
	lg.readOp(readOp{kind: opFull, site: relEdge, name: x.name, path: relExtraPath, file: x.data,
		serveSite: relEdgeServer, took: took - wrote})
}

// remove deletes the oldest small package and checks that its URL
// answers 404 at the edge.
func (p *publish) remove(rec *recorder, lg *ledger) {
	x := p.extras[0]
	lg.begin()
	start := time.Now()
	_, err := p.mod.RemovePackage(x.name)
	wrote := time.Since(start)
	var rep reply
	if err == nil {
		p.extras = p.extras[1:]
		rep, err = p.edge.getGone(x.url, &p.gone)
	}
	took := time.Since(start)
	rec.done("remove", took, rep.ttfb, 0, err)
	lg.end(took)
	if lg != nil && err == nil {
		lg.published("remove", wrote)
		lg.forget(x.name)
	}
}

func (p *publish) close() {
	if p.edge != nil {
		p.edge.close()
	}
	p.w.Close()
}
