package main

import (
	"fmt"
	"time"

	"gdn"
	"gdn/internal/pkgobj"
)

// bulk-download: one client at an ap edge fetches large incompressible
// files from one client-server replica in eu through a non-caching
// GDN-HTTPD. A third of the requests are single Ranges that start
// mid-chunk.
const (
	bulkPackages = 4
	bulkFileSize = 24 << 20
	bulkRangeLen = 4 << 20
	bulkServer   = "eu-nl-vu"
	bulkEdge     = "ap-jp-ut"
	bulkFile     = "dist.tar"
)

type bulk struct {
	w     *gdn.World
	edge  *edge
	names []string
	urls  []string
	files [][]byte
	etags []string
	// rangeOff is each package's Range start: inside a chunk, with the
	// Range ending before the file does.
	rangeOff []int64
	x        expect
}

func newBulk(seed uint64) (workload, error) {
	w, err := gdn.NewWorld(gdn.DefaultTopology())
	if err != nil {
		return nil, err
	}
	b := &bulk{w: w}
	if err := b.publish(seed); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *bulk) publish(seed uint64) error {
	mod, err := b.w.Moderator(bulkServer, "bulk-moderator")
	if err != nil {
		return err
	}
	rng := stream(seed, "bulk-ranges")
	const cs = pkgobj.DefaultChunkSize
	for i := 0; i < bulkPackages; i++ {
		name := fmt.Sprintf("/bulk/dist%d", i)
		data := content(seed, fmt.Sprintf("bulk-%d", i), bulkFileSize)
		scen := gdn.Scenario{Protocol: gdn.ProtocolClientServer, Servers: b.w.GOSAddrs(bulkServer)}
		if _, _, err := mod.CreatePackage(name, scen, gdn.Package{Files: map[string][]byte{bulkFile: data}}); err != nil {
			return fmt.Errorf("publish %s: %w", name, err)
		}
		b.names = append(b.names, name)
		b.urls = append(b.urls, "/pkg"+name+"/-/"+bulkFile)
		b.files = append(b.files, data)
		b.etags = append(b.etags, etagOf(data))
		chunk := rng.Int64N((bulkFileSize-bulkRangeLen)/cs - 1)
		b.rangeOff = append(b.rangeOff, chunk*cs+1+rng.Int64N(cs-2))
	}
	b.edge, err = newEdge(b.w, bulkEdge)
	return err
}

func (b *bulk) clients() int      { return 1 }
func (b *bulk) world() *gdn.World { return b.w }
func (b *bulk) probe(lg *ledger)  { probeWrites(lg, b.w, bulkServer, b.names[0], bulkFile, b.files[0]) }

// round fetches every package whole, with a Range request after every
// second one.
func (b *bulk) round(_ int, rec *recorder, lg *ledger) {
	for i := range b.names {
		lg.begin()
		start := time.Now()
		rep, err := b.edge.getFile(b.urls[i], b.files[i], b.etags[i], &b.x)
		took := time.Since(start)
		rec.done("get", took, rep.ttfb, rep.n, err)
		lg.end(took)
		if err == nil {
			lg.readOp(readOp{kind: opFull, site: bulkEdge, name: b.names[i], path: bulkFile,
				file: b.files[i], serveSite: bulkServer, took: took})
		}
		if i%2 == 0 {
			continue
		}
		lg.begin()
		start = time.Now()
		rep, err = b.edge.getRange(b.urls[i], b.files[i], b.rangeOff[i], bulkRangeLen, b.etags[i], &b.x)
		took = time.Since(start)
		rec.done("range", took, rep.ttfb, rep.n, err)
		lg.end(took)
		if err == nil {
			lg.readOp(readOp{kind: opRange, site: bulkEdge, name: b.names[i], path: bulkFile, file: b.files[i],
				off: b.rangeOff[i], n: bulkRangeLen, serveSite: bulkServer, took: took})
		}
	}
}

func (b *bulk) close() {
	if b.edge != nil {
		b.edge.close()
	}
	b.w.Close()
}
