package main

import (
	"fmt"
	"io"
	"os"
	"path"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"gdn"
	"gdn/internal/core"
	"gdn/internal/ids"
	"gdn/internal/obs"
	"gdn/internal/pkgobj"
	"gdn/internal/store"
)

// readOp describes one completed read operation to the ledger, which
// repeats its work through each layer's public function on its own.
type readOp struct {
	kind      string // opFull, opRange, opHead, opCond, opPage or opBind
	site      string // the client's site
	name      string // package name; the directory for opPage
	path      string // file within the package
	file      []byte // the generator's copy of the whole file
	off, n    int64  // the bytes the operation read (opRange)
	serveSite string // site of the object server holding the replica read
	took      time.Duration
}

// Operation kinds the ledger distinguishes.
const (
	opFull  = "full"
	opRange = "range"
	opHead  = "head"
	opCond  = "cond"
	opPage  = "page"
	opBind  = "bind"
)

// timer accumulates one timed call.
type timer struct {
	sum time.Duration
	n   int64
}

func (t *timer) add(d time.Duration) { t.sum += d; t.n++ }

func (t *timer) meanMS() float64 { return ms(t.sum) / float64(t.n) }

// counters is a snapshot of the program's own series, read around each
// operation so the ledger's direct calls never count.
type counters struct {
	rpcCalls, rpcClientNS, rpcServerNS int64
	lookups, frames                    int64
	served, stalls, puts, dedups       int64
	mallocs                            uint64
}

var (
	hRPCClient = obs.Default.Histogram("gdn_rpc_client_call_seconds", "", obs.Seconds, obs.TimeBuckets)
	hRPCServer = obs.Default.Histogram("gdn_rpc_server_op_seconds", "", obs.Seconds, obs.TimeBuckets)
	hLookup    = obs.Default.Histogram("gdn_gls_resolver_lookup_seconds", "", obs.Seconds, obs.TimeBuckets)
	hPut       = obs.Default.Histogram("gdn_store_put_seconds", "", obs.Seconds, obs.TimeBuckets)
	cZeroCopy  = obs.Default.Counter("gdn_store_serve_zerocopy_bytes_total", "")
	cPooled    = obs.Default.Counter("gdn_store_serve_pooled_bytes_total", "")
	cStalls    = obs.Default.Counter("gdn_store_prefetch_stalls_total", "")
	cDedup     = obs.Default.Counter("gdn_store_dedup_total", "")
)

// ledger is the traced run's per-layer account. It is used from one
// goroutine: the traced replay runs its clients' rounds in turn.
type ledger struct {
	w       *gdn.World
	timers  map[string]*timer
	stubs   map[string]*pkgobj.Stub // bound once per site and package
	samples []metrics.Sample

	// Counter deltas summed over every operation window.
	before, sum counters
	ops         int64

	// Span folding: spans recorded since lastSpan, by kind.
	lastSpan  uint64
	sinceLast int
	pending   map[uint64][]interval // child intervals whose parent is unseen
	spanSelf  map[string]time.Duration
	lostSpans bool
}

type interval struct{ start, end time.Time }

func newLedger(w *gdn.World) *ledger {
	lg := &ledger{
		w:        w,
		timers:   map[string]*timer{},
		stubs:    map[string]*pkgobj.Stub{},
		samples:  []metrics.Sample{{Name: "/gc/heap/allocs:objects"}},
		pending:  map[uint64][]interval{},
		spanSelf: map[string]time.Duration{},
	}
	if recent := obs.DefaultTracer.Recent(); len(recent) > 0 {
		lg.lastSpan = recent[len(recent)-1].Span
	}
	return lg
}

func (lg *ledger) time(name string, d time.Duration) {
	t := lg.timers[name]
	if t == nil {
		t = &timer{}
		lg.timers[name] = t
	}
	t.add(d)
}

func (lg *ledger) read(c *counters) {
	c.rpcCalls, c.rpcClientNS = hRPCClient.Count(), hRPCClient.Sum()
	c.rpcServerNS = hRPCServer.Sum()
	c.lookups = hLookup.Count()
	c.frames = lg.w.Net.Meter().TotalFrames()
	c.served = cZeroCopy.Value() + cPooled.Value()
	c.stalls = cStalls.Value()
	c.puts, c.dedups = hPut.Count(), cDedup.Value()
	metrics.Read(lg.samples)
	c.mallocs = lg.samples[0].Value.Uint64()
}

// begin opens an operation window (nil-safe).
func (lg *ledger) begin() {
	if lg == nil {
		return
	}
	lg.read(&lg.before)
}

// end closes the window opened by begin for an operation that took
// took (nil-safe).
func (lg *ledger) end(took time.Duration) {
	if lg == nil {
		return
	}
	var now counters
	lg.read(&now)
	b, s := &lg.before, &lg.sum
	s.rpcCalls += now.rpcCalls - b.rpcCalls
	s.rpcClientNS += now.rpcClientNS - b.rpcClientNS
	s.rpcServerNS += now.rpcServerNS - b.rpcServerNS
	s.lookups += now.lookups - b.lookups
	s.frames += now.frames - b.frames
	s.served += now.served - b.served
	s.stalls += now.stalls - b.stalls
	s.puts += now.puts - b.puts
	s.dedups += now.dedups - b.dedups
	s.mallocs += now.mallocs - b.mallocs
	lg.ops++
	if lg.sinceLast++; lg.sinceLast >= 16 {
		lg.drainSpans()
	}
}

// stub returns a stub bound at site to a package, kept for the run.
func (lg *ledger) stub(site, name string) (*pkgobj.Stub, error) {
	key := site + " " + name
	if s, ok := lg.stubs[key]; ok {
		return s, nil
	}
	s, _, err := lg.w.BindPackage(site, name)
	if err != nil {
		return nil, err
	}
	lg.stubs[key] = s
	return s, nil
}

// forget drops the kept stub of a removed package.
func (lg *ledger) forget(name string) {
	for key, s := range lg.stubs {
		if strings.HasSuffix(key, " "+name) {
			s.Close()
			delete(lg.stubs, key)
		}
	}
}

// readOp repeats a read operation's work layer by layer. Every call is
// timed on its own; failures stop the run, since the operation itself
// just succeeded through the same layers.
func (lg *ledger) readOp(op readOp) {
	if lg == nil {
		return
	}
	if err := lg.replay(op); err != nil {
		fatalf("traced replay of %s %s %s: %v", op.kind, op.name, op.path, err)
	}
}

func (lg *ledger) replay(op readOp) error {
	rt, err := lg.w.UserRuntime(op.site)
	if err != nil {
		return err
	}
	dir := op.name
	if op.kind != opPage {
		dir = path.Dir(op.name)
	}
	t := time.Now()
	if _, _, err := rt.Names().Entries(dir); err != nil {
		return fmt.Errorf("entries %s: %w", dir, err)
	}
	entries := time.Since(t)
	lg.time("gns.entries_ms", entries)
	if op.kind == opPage {
		lg.time("httpd.self_ms", op.took-entries)
		return nil
	}

	t = time.Now()
	oid, _, err := rt.Names().Resolve(op.name)
	if err != nil {
		return fmt.Errorf("resolve: %w", err)
	}
	lg.time("gns.resolve_ms", time.Since(t))
	t = time.Now()
	if _, _, err := rt.Resolver().Lookup(oid); err != nil {
		return fmt.Errorf("lookup: %w", err)
	}
	lg.time("gls.lookup_ms", time.Since(t))
	t = time.Now()
	lr, _, err := rt.BindName(op.name)
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	lg.time("core.bind_ms", time.Since(t))
	lr.Close()

	stub, err := lg.stub(op.site, op.name)
	if err != nil {
		return err
	}
	t = time.Now()
	if _, err := stub.Stat(op.path); err != nil {
		return fmt.Errorf("stat: %w", err)
	}
	stat := time.Since(t)
	lg.time("pkgobj.stat_ms", stat)

	off, n := int64(0), int64(len(op.file))
	switch op.kind {
	case opFull, opBind:
		t = time.Now()
		if _, err := stub.ReadFileTo(io.Discard, op.path); err != nil {
			return fmt.Errorf("read: %w", err)
		}
		read := time.Since(t)
		lg.time("pkgobj.read_ms", read)
		br, ok := stub.LR().Replication().(core.BulkReader)
		if !ok {
			return fmt.Errorf("replication subobject does not stream")
		}
		t = time.Now()
		if _, _, err := br.ReadBulk(obs.SpanContext{}, op.path, 0, -1, func([]byte) error { return nil }); err != nil {
			return fmt.Errorf("read bulk: %w", err)
		}
		bulk := time.Since(t)
		lg.time("repl.read_bulk_ms", bulk)
		lg.time("pkgobj.verify_ms", read-bulk)
		if op.kind == opFull {
			lg.time("httpd.self_ms", op.took-stat-read)
		}
		if err := lg.stage(op.path, op.file); err != nil {
			return err
		}
	case opRange:
		off, n = op.off, op.n
		t = time.Now()
		if _, err := stub.ReadFileRangeTo(io.Discard, op.path, off, n); err != nil {
			return fmt.Errorf("range read: %w", err)
		}
		rr := time.Since(t)
		lg.time("pkgobj.range_read_ms", rr)
		lg.time("httpd.self_ms", op.took-stat-rr)
	default: // opHead, opCond: answered from Stat alone
		lg.time("httpd.self_ms", op.took-stat)
		return nil
	}
	return lg.chunks(op.serveSite, op.file, off, n)
}

// chunks times the store layer over the canonical chunks covering
// [off, off+n) of file: hashing them (store.RefOf), serving them from
// the replica's store (GetZC + release; each chunk must be there, at the
// input's length) and storing them into a fresh memory store (Put).
func (lg *ledger) chunks(serveSite string, file []byte, off, n int64) error {
	const cs = pkgobj.DefaultChunkSize
	first, last := off/cs, (off+n-1)/cs
	refs := make([]store.Ref, 0, last-first+1)
	bodies := make([][]byte, 0, last-first+1)
	for i := first; i <= last; i++ {
		end := min((i+1)*cs, int64(len(file)))
		bodies = append(bodies, file[i*cs:end])
	}
	t := time.Now()
	for _, b := range bodies {
		refs = append(refs, store.RefOf(b))
	}
	lg.time("store.hash_ms", time.Since(t))

	gos, ok := lg.w.GOS(serveSite)
	if !ok {
		return fmt.Errorf("no object server at %s", serveSite)
	}
	st := gos.Chunks()
	t = time.Now()
	for i, ref := range refs {
		data, release, err := st.GetZC(ref)
		if err != nil {
			return fmt.Errorf("GetZC at %s: %w", serveSite, err)
		}
		same := len(data) == len(bodies[i])
		if release != nil {
			release()
		}
		if !same {
			return fmt.Errorf("GetZC at %s: %d bytes, want %d", serveSite, len(data), len(bodies[i]))
		}
	}
	lg.time("store.get_ms", time.Since(t))

	fresh := store.Mem()
	t = time.Now()
	for _, b := range bodies {
		if _, err := fresh.Put(b); err != nil {
			return fmt.Errorf("put: %w", err)
		}
	}
	lg.time("store.put_ms", time.Since(t))
	return nil
}

// stage times the moderator tool's staging of one file into a local
// package object (the first step of every create).
func (lg *ledger) stage(path string, data []byte) error {
	if lg == nil {
		return nil
	}
	t := time.Now()
	staged := pkgobj.NewStub(core.NewLocalLR(ids.Nil, pkgobj.New()))
	if err := staged.UploadFile(path, data); err != nil {
		return fmt.Errorf("stage: %w", err)
	}
	lg.time("modtool.stage_ms", time.Since(t))
	return nil
}

// published records one moderator operation's own time (nil-safe).
func (lg *ledger) published(kind string, d time.Duration) {
	if lg != nil {
		lg.time("modtool."+kind+"_ms", d)
	}
}

// write times one moderator operation of the write probe and counts
// its chunk puts.
func (lg *ledger) write(kind string, fn func() error) {
	puts, dedups := hPut.Count(), cDedup.Value()
	t := time.Now()
	if err := fn(); err != nil {
		fatalf("write probe %s: %v", kind, err)
	}
	lg.published(kind, time.Since(t))
	lg.sum.puts += hPut.Count() - puts
	lg.sum.dedups += cDedup.Value() - dedups
}

// probeWrites gives a read-only workload's ledger its write-side
// entries: two releases of one of its packages (each changing two
// chunks, or the whole file when it is smaller), then the creation and
// removal of two small packages on the same object server. It runs
// after the traced replay, so no measured read sees it (nil-safe).
func probeWrites(lg *ledger, w *gdn.World, site, name, path string, file []byte) {
	if lg == nil {
		return
	}
	mod, err := w.Moderator(site, "probe-moderator")
	if err != nil {
		fatalf("write probe: %v", err)
	}
	rng := stream(0, "write-probe")
	data := append([]byte(nil), file...)
	upload := func(s *pkgobj.Stub) error { return s.UploadFile(path, data) }
	for i := 0; i < 2; i++ {
		if len(data) >= 2*pkgobj.DefaultChunkSize {
			mutate(rng, data, 2)
		} else {
			fill(rng, data)
		}
		lg.write("update", func() error { _, err := mod.UpdatePackage(name, upload); return err })
	}
	scen := gdn.Scenario{Protocol: gdn.ProtocolClientServer, Servers: w.GOSAddrs(site)}
	for i := 0; i < 2; i++ {
		small := make([]byte, 8<<10)
		fill(rng, small)
		pkg := gdn.Package{Files: map[string][]byte{"probe.bin": small}}
		lg.write("create", func() error { _, _, err := mod.CreatePackage(fmt.Sprintf("/probe/p%d", i), scen, pkg); return err })
	}
	for i := 0; i < 2; i++ {
		lg.write("remove", func() error { _, err := mod.RemovePackage(fmt.Sprintf("/probe/p%d", i)); return err })
	}
}

// drainSpans folds the spans the program recorded since the last drain
// into self time per span kind: a span's duration minus the part of it
// its children cover.
func (lg *ledger) drainSpans() {
	lg.sinceLast = 0
	recent := obs.DefaultTracer.Recent()
	i := len(recent) - 1
	for i >= 0 && recent[i].Span != lg.lastSpan {
		i--
	}
	if i < 0 && lg.lastSpan != 0 {
		lg.lostSpans = true // the ring wrapped past the last drain
	}
	fresh := recent[i+1:]
	if len(fresh) == 0 {
		return
	}
	lg.lastSpan = fresh[len(fresh)-1].Span
	// Children end before their parents, so a parent's children are
	// always in this drain or pending from an earlier one.
	for _, r := range fresh {
		if r.Parent != 0 {
			lg.pending[r.Parent] = append(lg.pending[r.Parent], interval{r.Start, r.Start.Add(r.Duration)})
		}
	}
	for _, r := range fresh {
		kids := lg.pending[r.Span]
		delete(lg.pending, r.Span)
		self := r.Duration - covered(r.Start, r.Start.Add(r.Duration), kids)
		if kind := spanKind(r.Name); kind != "" {
			lg.spanSelf[kind] += self
		}
	}
}

// spanKind maps a recorded span name to its ledger metric.
func spanKind(name string) string {
	for _, k := range [][2]string{
		{"httpd ", "span.httpd_self_ms"},
		{"rpc.serve ", "span.rpc_serve_self_ms"},
		{"repl.stream ", "span.repl_stream_self_ms"},
		{"store.walk ", "span.store_walk_self_ms"},
	} {
		if strings.HasPrefix(name, k[0]) {
			return k[1]
		}
	}
	return ""
}

// covered is the length of the union of ivs clipped to [start, end].
func covered(start, end time.Time, ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start.Before(ivs[j].start) })
	var total time.Duration
	cur := start
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(cur) {
			s = cur
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			total += e.Sub(s)
			cur = e
		}
	}
	return total
}

// perLayer lists the ledger's metrics with their units, in report order.
var perLayer = []struct{ name, unit string }{
	{"httpd.self_ms", "ms"},
	{"pkgobj.stat_ms", "ms"},
	{"pkgobj.read_ms", "ms"},
	{"pkgobj.range_read_ms", "ms"},
	{"repl.read_bulk_ms", "ms"},
	{"pkgobj.verify_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.hash_ms", "ms"},
	{"store.put_ms", "ms"},
	{"core.bind_ms", "ms"},
	{"gls.lookup_ms", "ms"},
	{"gns.resolve_ms", "ms"},
	{"gns.entries_ms", "ms"},
	{"modtool.stage_ms", "ms"},
	{"modtool.update_ms", "ms"},
	{"modtool.create_ms", "ms"},
	{"modtool.remove_ms", "ms"},
	{"rpc.calls_per_op", "count"},
	{"rpc.client_ms_per_op", "ms"},
	{"rpc.server_ms_per_op", "ms"},
	{"netsim.frames_per_op", "count"},
	{"gls.lookups_per_op", "count"},
	{"store.serve_mb_per_op", "MB"},
	{"store.prefetch_stalls_per_op", "count"},
	{"store.dedup_ratio", "ratio"},
	{"go.mallocs_per_op", "count"},
	{"span.httpd_self_ms", "ms"},
	{"span.rpc_serve_self_ms", "ms"},
	{"span.repl_stream_self_ms", "ms"},
	{"span.store_walk_self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// report fills the per-layer metrics. A metric the run could not
// produce is left out and named on standard error, never reported as 0.
func (lg *ledger) report(res *result, base, traced *recorder) {
	lg.drainSpans()
	ops := float64(lg.ops)
	s := lg.sum
	vals := map[string]float64{}
	for name, t := range lg.timers {
		vals[name] = t.meanMS()
	}
	if ops > 0 {
		vals["rpc.calls_per_op"] = float64(s.rpcCalls) / ops
		vals["rpc.client_ms_per_op"] = float64(s.rpcClientNS) / 1e6 / ops
		vals["rpc.server_ms_per_op"] = float64(s.rpcServerNS) / 1e6 / ops
		vals["netsim.frames_per_op"] = float64(s.frames) / ops
		vals["gls.lookups_per_op"] = float64(s.lookups) / ops
		vals["store.serve_mb_per_op"] = float64(s.served) / 1e6 / ops
		vals["store.prefetch_stalls_per_op"] = float64(s.stalls) / ops
		vals["go.mallocs_per_op"] = float64(s.mallocs) / ops
		for kind, d := range lg.spanSelf {
			vals[kind] = ms(d) / ops
		}
	}
	if s.puts > 0 {
		vals["store.dedup_ratio"] = float64(s.dedups) / float64(s.puts)
	}
	if b, t := mean(base.latMS), mean(traced.latMS); b > 0 && t > 0 {
		vals["trace.overhead_ratio"] = t / b
	}
	if lg.lostSpans {
		fmt.Fprintln(os.Stderr, "gdnbench: the span ring wrapped between drains; span.* self times undercount")
	}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "gdnbench: %s cannot be produced on this workload\n", m.name)
			continue
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	res.header = append(res.header, fmt.Sprintf("traced operations=%d (ledger windows), untraced replay %d ops in %.2fs, traced replay %d ops in %.2fs",
		lg.ops, len(base.latMS), base.wall.Seconds(), len(traced.latMS), traced.wall.Seconds()))
	for _, st := range lg.stubs {
		st.Close()
	}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
