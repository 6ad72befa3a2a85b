// Package tix is the temporal aggregate index: a power-of-two segment
// tree over the sealed blocks of a binary (colf) store, where each
// interior node stores the serialized, mergeable per-continent
// distribution state of every delivered sample in its block range. An
// arbitrary [since, until) window then composes O(log n) pre-merged
// nodes plus a batch decode of only the partially covered edge blocks,
// instead of re-scanning every row in the window.
//
// The index lives in a sidecar (samples.tix) next to the samples file,
// in the record format every derived file of a store shares
// (internal/snap): a binding record ties it to (pass set, probe index,
// campaign meta), and each node is one CRC-guarded record appended as
// blocks seal. Any mismatch — binding, torn tail, a node whose byte
// range no longer matches the store's block list — drops the invalid
// suffix or the whole file. Corruption is never worse than a cache
// miss: queries fall back to decoding blocks.
//
// # Node record
//
//	node = 0x01 | uvarint level | uvarint start
//	     | varint startOff | varint endOff
//	     | uvarint rows | uvarint delivered
//	     | uvarint #continents
//	     | ( continent byte | Dist state
//	       | uvarint #bins | uvarint bin increment * )*
//
// A node at level L covers blocks [start, start+2^L); level-0 leaves
// are never stored — a single block decodes in microseconds through
// the batch kernels, so persisting leaves would double the sidecar for
// no query win. Nodes append in completion order (the binary-counter
// order blocks seal in), which makes the file bytes a deterministic
// function of the store prefix: growing the index incrementally or
// rebuilding it in one pass produces identical files.
//
// Distribution state reuses the stats.Dist snapshot codec with the
// samples pre-sorted, so composing a window is a sorted-slab merge and
// every rank query over the composed state answers bit-identically to
// a cold row scan of the same window (rank queries depend only on the
// sample multiset). Each continent's state is followed by its curve
// pre-aggregate — per-bin sample counts on the fixed figure grid (see
// curve.go) — so the dense CDF curve a window renders composes by
// integer addition instead of a pass over the samples.
//
// # What stays resident
//
// A window's curves need only the pre-aggregates, so Open — which reads
// and checksums every record anyway — decodes each node's grid (a few
// KB) once and keeps it on the node directory; Extend keeps the grid of
// every node it writes and memoizes the grid of every leaf block it
// decodes. Views share all of them by pointer, and a query composes its
// curves with no sidecar I/O at all. The 8-byte-per-sample distribution
// slabs are read back (CRC re-verified on every read) only when a
// caller asks a Result for distributions or quantiles.
package tix

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/snap"
	"repro/internal/stats"
)

// PassSetCDF names the pass state this format version stores per node:
// the per-continent delivered-RTT distribution behind /cdf and the
// windowed /quantile. A different pass set never applies.
const PassSetCDF = "continent-cdf-v1"

// maxLevel bounds node levels to a sane tree height (2^48 blocks is
// far past any real store); decoded levels above it mark corruption.
const maxLevel = 48

// recNode tags a node record.
const recNode = 0x01

// Binding is the identity the sidecar binds to: the pass set
// (PassSetCDF), the probe index fingerprint (core.Index.Fingerprint) and
// the campaign meta fingerprint (core.MetaFingerprint). An index opened
// under a different binding is discarded and rebuilt.
type Binding = snap.Binding

// Continents resolves probe IDs to continents — the slice of core.Index
// the leaf builder and edge-block folds need: a dense table indexed by
// probe ID, ContinentUnknown for probes the analysis skips (as are IDs
// past its end). The resolver used at build time must match the one
// used at query time; the Binding's index fingerprint is what pins
// that.
type Continents interface {
	ContinentTable() []geo.Continent
}

// nodeKey addresses one segment node: its level and first block index.
type nodeKey struct {
	level int
	start int
}

// nodeRef is the in-memory directory entry for one validated node:
// where its record sits in the sidecar, what it covers, and its curve
// pre-aggregate. The record's distribution slabs are read back lazily,
// per query that needs them.
type nodeRef struct {
	level            int
	start            int
	startOff, endOff int64 // covered byte range in the samples file
	rows, delivered  uint64
	recOff           int64 // sidecar offset of the node's record
	recLen           int   // the record's framed size
	grid             *grid // decoded from the CRC-verified payload; immutable
}

// blocks returns the node's covered block count.
func (r nodeRef) blocks() int { return 1 << r.level }

// Index is a temporal aggregate index opened for maintenance: Extend
// appends nodes as blocks seal, View publishes immutable query
// handles. The Index itself is single-writer (callers serialize Extend
// and View); Views are safe for concurrent Query against a concurrent
// Extend, because records are append-only and a View only references
// records that existed when it was taken.
type Index struct {
	path    string
	f       *os.File
	binding Binding
	log     *obs.Logger

	nodes    map[nodeKey]nodeRef
	blocks   *blockState
	size     int64 // current file size (append offset)
	frontier int   // sealed blocks processed so far
	dec      *colf.BlockDecoder
}

// blockState is what an Index and all its Views share about the
// store's blocks. leaves keeps the grid of every fully covered leaf
// block decoded so far — by Extend's leaf folds or by a query's stray
// and frontier decodes — so the odd leaves of the dyadic decomposition
// and the newest block of every trailing window decode once, not once
// per request. Entries are keyed by block offset and sealed blocks never
// change, so the memo only grows: at most one grid (~10 KB: six
// continents of 400 uint32 bins) per sealed block. The mutex covers
// queries filling it while Extend does. decoders keeps idle block
// decoders: a decode fills ~25 bytes of column buffers per row, and a
// query that allocated them afresh would hand the collector a megabyte
// per request.
type blockState struct {
	mu       sync.RWMutex
	leaves   map[int64]leafGrid
	decoders sync.Pool // of *colf.BlockDecoder
}

// leafGrid is one memoized leaf: the block length pins the entry to the
// block it was decoded from.
type leafGrid struct {
	len int64
	g   *grid
}

func (bs *blockState) leaf(bi colf.BlockInfo) *grid {
	bs.mu.RLock()
	e := bs.leaves[bi.Off]
	bs.mu.RUnlock()
	if e.len != bi.Len {
		return nil
	}
	return e.g
}

func (bs *blockState) putLeaf(bi colf.BlockInfo, g *grid) {
	bs.mu.Lock()
	bs.leaves[bi.Off] = leafGrid{len: bi.Len, g: g}
	bs.mu.Unlock()
}

// decoder takes an idle decoder (or makes one); release returns it. A
// decoded block is only valid until its decoder is released.
func (bs *blockState) decoder() *colf.BlockDecoder {
	if d, ok := bs.decoders.Get().(*colf.BlockDecoder); ok {
		return d
	}
	return colf.NewBlockDecoder()
}

func (bs *blockState) release(d *colf.BlockDecoder) { bs.decoders.Put(d) }

// Open opens (or creates) the sidecar at path and validates it against
// the given binding and the store's current sealed block list. A
// missing file, a bad magic, or a binding mismatch yields a freshly
// initialized empty index; a torn or invalid record suffix is
// truncated away and the valid prefix kept. Open never decodes store
// blocks — call Extend to grow the index to the block list.
func Open(path string, b Binding, blocks []colf.BlockInfo, log *obs.Logger) (*Index, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	ix := &Index{
		path: path, f: f, binding: b, log: log,
		nodes:  make(map[nodeKey]nodeRef),
		blocks: &blockState{leaves: make(map[int64]leafGrid)},
		dec:    colf.NewBlockDecoder(),
	}
	if err := ix.load(blocks); err != nil {
		f.Close()
		return nil, err
	}
	return ix, nil
}

// load validates the existing file — the shared record checks first,
// then each node in full, which is where its resident grid comes from —
// and truncates to the valid prefix or resets the file as the discipline
// demands. The file is read once into a buffer of its own size: the
// sidecar runs to tens of megabytes, and growing a buffer towards that
// was most of Open's cost.
func (ix *Index) load(blocks []colf.BlockInfo) error {
	fi, err := ix.f.Stat()
	if err != nil {
		return err
	}
	buf := make([]byte, fi.Size())
	n, err := ix.f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return err
	}
	buf = buf[:n] // a file that shrank under us is a torn suffix like any other
	p := snap.Validate(buf, ix.binding)
	if p.Valid == 0 {
		if len(buf) != 0 {
			ix.log.Info("tix reset", "path", ix.path, "reason", p.Stop)
		}
		return ix.reset()
	}
	valid, stop := p.Valid, p.Stop
	for _, rec := range p.Records {
		ref, ns, err := decodeNodeState(rec.Payload)
		if err != nil {
			valid, stop = rec.Off, "corrupt node: "+err.Error()
			break
		}
		if err := validateNode(ref, blocks, ix.nodes); err != nil {
			valid, stop = rec.Off, "stale node: "+err.Error()
			break
		}
		ref.recOff, ref.recLen, ref.grid = rec.Off, rec.Len(), ns.grid
		ix.nodes[nodeKey{ref.level, ref.start}] = ref
		if end := ref.start + ref.blocks(); end > ix.frontier {
			ix.frontier = end
		}
	}
	ix.size = valid
	if valid == int64(len(buf)) {
		return nil
	}
	ix.log.Info("tix truncated", "path", ix.path, "reason", stop, "offset", valid)
	return ix.f.Truncate(valid)
}

// reset empties the index and rewrites the file as a bare binding.
func (ix *Index) reset() error {
	ix.nodes = make(map[nodeKey]nodeRef)
	ix.frontier = 0
	img := snap.Image(ix.binding)
	if err := ix.f.Truncate(0); err != nil {
		return err
	}
	if _, err := ix.f.WriteAt(img, 0); err != nil {
		return err
	}
	ix.size = int64(len(img))
	return ix.f.Sync()
}

// nodeState is one node's decoded aggregate: its grid (rows covered,
// per-continent sample counts and curve bins) plus the per-continent
// delivered-RTT distributions of probes the index resolves. A
// continent's distribution and its grid row always travel together.
type nodeState struct {
	grid  *grid
	dists [numContinents]*stats.Dist
}

func newNodeState() *nodeState { return &nodeState{grid: &grid{}} }

// mergeStates folds right — covering the blocks after left's — onto
// left. Receiver-first ordering keeps the float accumulators a
// deterministic function of the block range, whichever extend path
// built the node. left's distributions are consumed; both grids stay
// untouched (they may already be published).
func mergeStates(left, right *nodeState) (*nodeState, error) {
	out := newNodeState()
	out.grid.add(left.grid)
	out.grid.add(right.grid)
	out.dists = left.dists
	for ct, rd := range right.dists {
		switch {
		case rd == nil:
		case out.dists[ct] == nil:
			out.dists[ct] = rd
		default:
			if err := out.dists[ct].Merge(rd); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// encodeNode serializes one node record payload. Distributions write
// sorted, so every stored slab is ascending and a query-time compose
// is a linear sorted merge; each distribution is followed by its curve
// count vector.
func encodeNode(level, start int, startOff, endOff int64, ns *nodeState) []byte {
	p := []byte{recNode}
	p = snap.AppendUvarint(p, uint64(level))
	p = snap.AppendUvarint(p, uint64(start))
	p = snap.AppendVarint(p, startOff)
	p = snap.AppendVarint(p, endOff)
	p = snap.AppendUvarint(p, ns.grid.rows)
	p = snap.AppendUvarint(p, ns.grid.delivered)
	var cts []geo.Continent
	for _, ct := range geo.Continents() {
		if d := ns.dists[ct]; d != nil && d.N() > 0 {
			cts = append(cts, ct)
		}
	}
	p = snap.AppendUvarint(p, uint64(len(cts)))
	for _, ct := range cts {
		p = append(p, byte(ct))
		d := ns.dists[ct]
		d.Sort()
		p = d.AppendState(p)
		cnt := ns.grid.bins[ct]
		p = snap.AppendUvarint(p, curveBins)
		for k := 0; k < curveBins; k++ {
			var x uint32
			if cnt != nil {
				x = cnt[k]
			}
			p = snap.AppendUvarint(p, uint64(x))
		}
	}
	return p
}

// decodeNodeFixed parses the fixed fields and returns the cursor
// positioned at the distribution section.
func decodeNodeFixed(payload []byte) (nodeRef, *snap.Cursor, error) {
	var ref nodeRef
	if len(payload) == 0 || payload[0] != recNode {
		return ref, nil, fmt.Errorf("tix: not a node record")
	}
	c := snap.NewCursor(payload[1:])
	level, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	start, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	if level < 1 || level > maxLevel {
		return ref, nil, fmt.Errorf("tix: node level %d out of range", level)
	}
	if start > 1<<62 || start%(1<<level) != 0 {
		return ref, nil, fmt.Errorf("tix: node start %d misaligned for level %d", start, level)
	}
	ref.level, ref.start = int(level), int(start)
	if ref.startOff, err = c.Varint(); err != nil {
		return ref, nil, err
	}
	if ref.endOff, err = c.Varint(); err != nil {
		return ref, nil, err
	}
	if ref.startOff < 0 || ref.endOff <= ref.startOff {
		return ref, nil, fmt.Errorf("tix: node byte range [%d, %d) invalid", ref.startOff, ref.endOff)
	}
	if ref.rows, err = c.Uvarint(); err != nil {
		return ref, nil, err
	}
	if ref.delivered, err = c.Uvarint(); err != nil {
		return ref, nil, err
	}
	if ref.delivered > ref.rows {
		return ref, nil, fmt.Errorf("tix: node delivered %d exceeds rows %d", ref.delivered, ref.rows)
	}
	return ref, c, nil
}

// decodeNodeState parses a full node payload including its
// distribution section. The returned distributions alias payload (lazy
// spans); the caller must keep payload alive, which holds for per-read
// buffers.
func decodeNodeState(payload []byte) (nodeRef, *nodeState, error) {
	ref, c, err := decodeNodeFixed(payload)
	if err != nil {
		return ref, nil, err
	}
	n, err := c.Uvarint()
	if err != nil {
		return ref, nil, err
	}
	if n > uint64(len(geo.Continents())) {
		return ref, nil, fmt.Errorf("tix: node claims %d continents", n)
	}
	ns := newNodeState()
	ns.grid.rows, ns.grid.delivered = ref.rows, ref.delivered
	prev := -1
	var total uint64
	for i := uint64(0); i < n; i++ {
		cb, err := c.Byte()
		if err != nil {
			return ref, nil, err
		}
		ct := geo.Continent(cb)
		if int(cb) <= prev || ct == geo.ContinentUnknown || int(cb) >= numContinents {
			return ref, nil, fmt.Errorf("tix: bad continent byte %d in node", cb)
		}
		prev = int(cb)
		d, err := stats.DecodeDistState(c)
		if err != nil {
			return ref, nil, err
		}
		total += uint64(d.N())
		ns.dists[ct] = d
		nb, err := c.Uvarint()
		if err != nil {
			return ref, nil, err
		}
		if nb != curveBins {
			return ref, nil, fmt.Errorf("tix: node curve has %d bins, want %d", nb, curveBins)
		}
		cnt := ns.grid.row(ct)
		var csum uint64
		for k := range cnt {
			x, err := c.Uvarint()
			if err != nil {
				return ref, nil, err
			}
			// Bounding each bin by N first keeps the sum from wrapping.
			if x > uint64(d.N()) {
				return ref, nil, fmt.Errorf("tix: node curve bin %d counts %d of %d samples", k, x, d.N())
			}
			cnt[k] = uint32(x)
			csum += x
		}
		if csum > uint64(d.N()) {
			return ref, nil, fmt.Errorf("tix: node curve counts %d samples, dist holds %d", csum, d.N())
		}
		ns.grid.n[ct] = uint64(d.N())
	}
	if c.Remaining() != 0 {
		return ref, nil, fmt.Errorf("tix: %d trailing node bytes", c.Remaining())
	}
	if total > ref.delivered {
		return ref, nil, fmt.Errorf("tix: node holds %d samples but covers %d delivered rows", total, ref.delivered)
	}
	return ref, ns, nil
}

// validateNode pins a decoded node to the store's current block list:
// the covered block range must exist and its byte boundaries and row
// total must match exactly. A store that was truncated or rewritten
// shifts offsets and fails here, invalidating the node and everything
// appended after it.
func validateNode(ref nodeRef, blocks []colf.BlockInfo, seen map[nodeKey]nodeRef) error {
	span := ref.blocks()
	if ref.start+span > len(blocks) {
		return fmt.Errorf("node [%d, %d) past %d sealed blocks", ref.start, ref.start+span, len(blocks))
	}
	if _, dup := seen[nodeKey{ref.level, ref.start}]; dup {
		return fmt.Errorf("duplicate node level %d start %d", ref.level, ref.start)
	}
	if got := blocks[ref.start].Off; got != ref.startOff {
		return fmt.Errorf("node start offset %d, store block at %d", ref.startOff, got)
	}
	last := blocks[ref.start+span-1]
	if got := last.Off + last.Len; got != ref.endOff {
		return fmt.Errorf("node end offset %d, store block ends at %d", ref.endOff, got)
	}
	var rows, delivered uint64
	for _, bi := range blocks[ref.start : ref.start+span] {
		rows += uint64(bi.Zone.Rows)
		delivered += uint64(bi.Zone.Delivered)
	}
	if rows != ref.rows || delivered != ref.delivered {
		return fmt.Errorf("node covers %d/%d rows/delivered, store has %d/%d",
			ref.rows, ref.delivered, rows, delivered)
	}
	return nil
}

// readNodeState reads the node record at off into buf — sized to the
// framed record — and decodes it, CRC re-verified (the page-cache read
// is cheap; the check keeps a post-open corruption from silently
// skewing a window). The decoded distributions alias buf.
func readNodeState(r io.ReaderAt, off int64, buf []byte) (*nodeState, error) {
	payload, err := snap.ReadRecord(r, off, buf)
	if err != nil {
		return nil, fmt.Errorf("tix: node: %w", err)
	}
	_, ns, err := decodeNodeState(payload)
	return ns, err
}

// leafState decodes one sealed block and folds it into a fresh node
// state, mirroring core.WindowCDFPass.ObserveBlock exactly (lost rows
// and unresolved probes skipped) so index-composed windows see the same
// sample multiset a scan pass would. The leaf's grid is memoized.
func (ix *Index) leafState(store io.ReaderAt, bi colf.BlockInfo, tbl []geo.Continent) (*nodeState, error) {
	blk, err := ix.dec.DecodeCols(store, bi, 0)
	if err != nil {
		return nil, err
	}
	ns := newNodeState()
	// blk.Zone is the CRC-verified footer zone — the trusted row totals.
	ns.grid.rows = uint64(blk.Zone.Rows)
	ns.grid.delivered = uint64(blk.Zone.Delivered)
	if err := foldDists(&ns.dists, ns.grid, tbl, blk, rowSel{hi: blk.Rows()}); err != nil {
		return nil, err
	}
	ix.blocks.putLeaf(bi, ns.grid)
	return ns, nil
}

// foldDists folds the selected delivered rows of blk into per-continent
// distributions and, when g is non-nil (a leaf being built), the same
// rows into g's counts. It is the slab path's kernel; the curve path
// counts through foldGrid alone.
func foldDists(dists *[numContinents]*stats.Dist, g *grid, tbl []geo.Continent, blk *colf.Block, s rowSel) error {
	for i := s.lo; i < s.hi; i++ {
		if blk.Lost[i] || !s.keep(blk, i) {
			continue
		}
		p := blk.Probe[i]
		if uint(p) >= uint(len(tbl)) || tbl[p] == geo.ContinentUnknown {
			continue
		}
		ct, v := tbl[p], blk.RTT[i]
		d := dists[ct]
		if d == nil {
			d = &stats.Dist{}
			dists[ct] = d
		}
		if err := d.Add(v); err != nil {
			return err
		}
		if g == nil {
			continue
		}
		g.n[ct]++
		if k := curveBin(v); k >= 0 {
			g.row(ct)[k]++
		}
	}
	return nil
}

// Extend grows the index to cover the given sealed block list, which
// must be the store's full list (a superset of what previous calls
// saw — the store is append-only). It replays the binary-counter
// completion schedule from block zero, appending every segment node
// not already stored: level-1 nodes fold their two leaf blocks, higher
// nodes merge their two children read back from the sidecar, so each
// block's rows decode at most once over the index's whole life. The
// full replay is what makes Extend self-healing — a corruption
// truncation that dropped interior nodes below the frontier gets them
// rebuilt on the next call, at the cost of cheap map lookups for
// everything already present. Appended records are fsynced once per
// call. Every appended node's grid, and every decoded leaf's, stays
// resident for the views published afterwards.
func (ix *Index) Extend(store io.ReaderAt, blocks []colf.BlockInfo, cls Continents) error {
	if cls == nil {
		return fmt.Errorf("tix: nil continent resolver")
	}
	tbl := cls.ContinentTable()
	wrote := false
	for i := 0; i < len(blocks); i++ {
		for level := 1; (i+1)%(1<<level) == 0; level++ {
			span := 1 << level
			start := i + 1 - span
			key := nodeKey{level, start}
			if _, ok := ix.nodes[key]; ok {
				continue
			}
			var left, right *nodeState
			var err error
			if level == 1 {
				if left, err = ix.leafState(store, blocks[start], tbl); err != nil {
					return err
				}
				if right, err = ix.leafState(store, blocks[start+1], tbl); err != nil {
					return err
				}
			} else {
				half := span / 2
				lref, lok := ix.nodes[nodeKey{level - 1, start}]
				rref, rok := ix.nodes[nodeKey{level - 1, start + half}]
				if !lok || !rok {
					return fmt.Errorf("tix: children of node level %d start %d missing", level, start)
				}
				if left, err = readNodeState(ix.f, lref.recOff, make([]byte, lref.recLen)); err != nil {
					return err
				}
				if right, err = readNodeState(ix.f, rref.recOff, make([]byte, rref.recLen)); err != nil {
					return err
				}
			}
			ns, err := mergeStates(left, right)
			if err != nil {
				return err
			}
			startOff := blocks[start].Off
			lastBlk := blocks[start+span-1]
			endOff := lastBlk.Off + lastBlk.Len
			rec := snap.AppendRecord(nil, encodeNode(level, start, startOff, endOff, ns))
			if _, err := ix.f.WriteAt(rec, ix.size); err != nil {
				return err
			}
			ix.nodes[key] = nodeRef{
				level: level, start: start,
				startOff: startOff, endOff: endOff,
				rows: ns.grid.rows, delivered: ns.grid.delivered,
				recOff: ix.size, recLen: len(rec),
				grid: ns.grid,
			}
			ix.size += int64(len(rec))
			wrote = true
		}
	}
	ix.frontier = len(blocks)
	if wrote {
		if err := ix.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Frontier returns how many sealed blocks the index has processed.
func (ix *Index) Frontier() int { return ix.frontier }

// Nodes returns the stored node count.
func (ix *Index) Nodes() int { return len(ix.nodes) }

// Path returns the sidecar path.
func (ix *Index) Path() string { return ix.path }

// Close releases the sidecar handle. Views taken earlier must not be
// queried afterwards.
func (ix *Index) Close() error { return ix.f.Close() }

// View publishes an immutable query handle over the nodes stored so
// far. The directory is copied, so a later Extend never races a
// concurrent Query; the node grids, the block state and the file handle
// are shared (grids are immutable, the block state locks, and records are
// append-only — a view only references records already written and
// synced).
func (ix *Index) View() *View {
	nodes := make(map[nodeKey]nodeRef, len(ix.nodes))
	for k, v := range ix.nodes {
		nodes[k] = v
	}
	return &View{f: ix.f, nodes: nodes, frontier: ix.frontier, blocks: ix.blocks}
}
