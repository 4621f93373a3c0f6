package engine

import (
	"fmt"
	"slices"
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
	"hetgrid/internal/sim"
)

// Collectives is the middle layer of the engine: row/column panel
// broadcasts and reductions over a distribution's receiver sets, realized
// with the same algorithms the simulator models (sim.BroadcastKind), so a
// real run and a simulated run of the same kernel select the identical
// communication schedule. Every rank computes each collective's schedule
// independently from the shared (root, receivers) inputs, which keeps the
// SPMD bodies deadlock-free: sends never block, and every Recv has a
// matching Send issued by a rank that is not waiting on this rank.
//
// The schedule inputs are derived once per run, not once per step: the
// block owner table is built when the Collectives is bound, and the
// receiver sets of every row and column for one bound are built on the
// bound's first use and memoised, with equal sets of one bound sharing a
// slice.
type Collectives struct {
	c        *Comm
	kind     sim.BroadcastKind
	nbr, nbc int
	owner    []int // flat rank of block (bi, bj) at bi*nbc+bj

	rowRecv, colRecv recvTable
}

// recvTable memoises one direction's receiver sets: for bound b, line l's
// set is sets[idx[b*lines+l]]. A bound's entries are built together on
// its first lookup; idx stays compact (one int32 per line and bound) so a
// run's whole table costs a few kilobytes.
type recvTable struct {
	lines int
	idx   []int32 // -1 until the bound is built
	sets  [][]int
}

func newRecvTable(lines, bounds int) recvTable {
	idx := make([]int32, lines*bounds)
	for i := range idx {
		idx[i] = -1
	}
	return recvTable{lines: lines, idx: idx}
}

// get returns line l's set for bound b, building the bound's entries from
// owner (the owner of the i-th of length blocks of a line) on first use:
// the distinct owners in first-appearance order. Lines with equal sets
// share one slice, so PanelBcast recognises a common receiver set by
// identity.
func (t *recvTable) get(b, l, length int, owner func(line, i int) int) []int {
	row := t.idx[b*t.lines : (b+1)*t.lines]
	if row[l] < 0 {
		first := len(t.sets)
		var set []int
		for line := range row {
			set = set[:0]
			for i := 0; i < length; i++ {
				if n := owner(line, i); !slices.Contains(set, n) {
					set = append(set, n)
				}
			}
			at := slices.IndexFunc(t.sets[first:], func(s []int) bool { return slices.Equal(s, set) })
			if at < 0 {
				at = len(t.sets) - first
				t.sets = append(t.sets, slices.Clone(set))
			}
			row[line] = int32(first + at)
		}
	}
	return t.sets[row[l]]
}

// NewCollectives binds a rank's endpoint to a distribution, taking the
// broadcast algorithm from the world's options.
func NewCollectives(c *Comm, d distribution.Distribution) *Collectives {
	return NewCollectivesKind(c, d, c.Broadcast())
}

// NewCollectivesKind binds a rank's endpoint to a distribution with an
// explicit broadcast algorithm.
func NewCollectivesKind(c *Comm, d distribution.Distribution, kind sim.BroadcastKind) *Collectives {
	nbr, nbc := d.Blocks()
	co := &Collectives{c: c, kind: kind, nbr: nbr, nbc: nbc, owner: make([]int, nbr*nbc),
		rowRecv: newRecvTable(nbr, nbc+1), colRecv: newRecvTable(nbc, nbr+1)}
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			co.owner[bi*nbc+bj] = node(d, bi, bj)
		}
	}
	return co
}

// Node returns the flat rank owning block (bi, bj).
func (co *Collectives) Node(bi, bj int) int {
	return co.owner[bi*co.nbc+bj]
}

// RowReceivers returns the ranks owning any block of block row bi with
// column ≥ jmin — the horizontal broadcast recipients. The order is
// deterministic (first block appearance), which ring and tree schedules
// rely on. The slice is memoised and shared: callers must not modify it.
func (co *Collectives) RowReceivers(jmin, bi int) []int {
	return co.rowRecv.get(jmin, bi, co.nbc-jmin, func(line, i int) int { return co.Node(line, jmin+i) })
}

// ColReceivers is the vertical analogue of RowReceivers: the owners of
// block column bj's blocks with row ≥ imin.
func (co *Collectives) ColReceivers(imin, bj int) []int {
	return co.colRecv.get(imin, bj, co.nbr-imin, func(line, i int) int { return co.Node(imin+i, line) })
}

// sameSet reports whether two receiver lists are equal, by identity first
// (memoised tables share slices between equal sets).
func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// bcastChain returns the broadcast chain every participant derives
// identically: the root at position 0, then the receivers other than the
// root, deduplicated with order preserved.
func bcastChain(root int, receivers []int) []int {
	chain := make([]int, 1, len(receivers)+1)
	chain[0] = root
	for _, r := range receivers {
		if !slices.Contains(chain, r) {
			chain = append(chain, r)
		}
	}
	return chain
}

// Bcast delivers data from root to every receiver under the collective's
// algorithm and returns the payload at each participant (root included).
// Every rank in {root} ∪ receivers must call it with identical arguments;
// rows is the payload's row count, which receivers need up front to drive
// the segmented-ring pipeline. Ranks outside the participant set must not
// call.
func (co *Collectives) Bcast(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	return co.bcast(tag, root, receivers, data, rows, false)
}

// bcast is Bcast with a choice of send path: owned payloads (a freshly
// stacked panel that no participant modifies) travel without the
// defensive copy, at the root and at every forwarding rank.
func (co *Collectives) bcast(tag string, root int, receivers []int, data *matrix.Dense, rows int, owned bool) *matrix.Dense {
	chain := bcastChain(root, receivers)
	me := co.c.Rank()
	pos := slices.Index(chain, me)
	if pos < 0 {
		panic(fmt.Sprintf("engine: rank %d called Bcast %q without being a participant", me, tag))
	}
	if len(chain) == 1 {
		return data
	}
	send := co.c.Send
	if owned {
		send = co.c.sendOwned
	}
	switch co.kind {
	case sim.StarBroadcast, sim.RingBroadcast, sim.TreeBroadcast:
		parent, children := bcastSchedule(co.kind, pos, len(chain))
		if pos > 0 {
			data = co.c.Recv(chain[parent], tag)
		}
		for _, child := range children {
			send(chain[child], tag, data)
		}
		return data
	case sim.SegmentedRingBroadcast:
		return co.segRingBcast(tag, chain, pos, data, rows, send)
	default:
		panic(fmt.Sprintf("engine: unknown broadcast kind %d", co.kind))
	}
}

// bcastSchedule derives the star, ring and binomial-tree broadcasts over
// a chain of n participants: the chain positions of pos's parent (-1 at
// the root) and of its children in sending order. The tree replays
// exactly the round structure sim.Cluster.Broadcast uses — in the round
// where the first m positions are informed, position k informs position
// m+k — so the real message pattern is the one the simulator prices.
func bcastSchedule(kind sim.BroadcastKind, pos, n int) (parent int, children []int) {
	switch kind {
	case sim.StarBroadcast:
		if pos > 0 {
			return 0, nil
		}
		for c := 1; c < n; c++ {
			children = append(children, c)
		}
		return -1, children
	case sim.RingBroadcast:
		if pos+1 < n {
			children = []int{pos + 1}
		}
		return pos - 1, children
	case sim.TreeBroadcast:
		// m becomes the first round after pos was informed; pos was
		// informed in round m/2, by position pos-m/2.
		parent, m := -1, 1
		for m <= pos {
			m *= 2
		}
		if pos > 0 {
			parent = pos - m/2
		}
		for ; pos+m < n; m *= 2 {
			children = append(children, pos+m)
		}
		return parent, children
	default:
		panic(fmt.Sprintf("engine: no point-to-point schedule for kind %d", kind))
	}
}

// segRingBcast pipelines the payload along the ring in row segments: while
// a node forwards segment s, its predecessor already sends it segment s+1
// — the real counterpart of sim's SegmentedRingBroadcast (goroutines
// provide the overlap the simulator models). Segments are row slices, at
// most sim.BroadcastSegments of them and never more than the payload has
// rows. pos is this rank's position in chain; send is the copying or the
// owned send path.
func (co *Collectives) segRingBcast(tag string, chain []int, pos int, data *matrix.Dense, rows int,
	send func(dst int, tag string, data *matrix.Dense)) *matrix.Dense {

	segs := sim.BroadcastSegments
	if rows < segs {
		segs = rows
	}
	if segs < 1 {
		segs = 1
	}
	segTag := func(s int) string { return tag + "/s" + strconv.Itoa(s) }
	if pos == 0 {
		_, cols := data.Dims()
		for s := 0; s < segs; s++ {
			lo, hi := s*rows/segs, (s+1)*rows/segs
			send(chain[1], segTag(s), data.Slice(lo, hi, 0, cols))
		}
		return data
	}
	parts := make([]*matrix.Dense, segs)
	for s := range parts {
		parts[s] = co.c.Recv(chain[pos-1], segTag(s))
		if pos+1 < len(chain) {
			send(chain[pos+1], segTag(s), parts[s])
		}
	}
	return stackRows(parts)
}

// stackRows concatenates matrices vertically.
func stackRows(parts []*matrix.Dense) *matrix.Dense {
	rows, cols := 0, 0
	for _, p := range parts {
		r, c := p.Dims()
		rows += r
		cols = c
	}
	out := matrix.New(rows, cols)
	at := 0
	for _, p := range parts {
		r, _ := p.Dims()
		if r > 0 {
			out.Slice(at, at+r, 0, cols).CopyFrom(p)
		}
		at += r
	}
	return out
}

// PanelBcast delivers a set of blocks — identified by index — to per-block
// receiver sets, aggregating blocks that share both their source and their
// receiver set into a single stacked message: the ScaLAPACK panel message,
// and exactly the grouping the simulator's panelBroadcast and the analytic
// CommVolume model charge. src[i] is the owner of block i, recv[i] its
// receiver set (deterministic order, shared by all ranks), get(i) the
// block at its owner (nil elsewhere), r the square block size.
//
// The returned slice, indexed by block index, holds for every index whose
// receiver set contains this rank (or that this rank owns) the block's
// payload — the owner's own block for resident indices, a view of the
// received stack otherwise — and nil for every other index. Received
// payloads are shared read-only with the other receivers.
func (co *Collectives) PanelBcast(tag string, indices []int, src func(int) int, recv func(int) []int,
	get func(int) *matrix.Dense, r int) []*matrix.Dense {

	sp := co.c.Phase("panel " + tag)
	defer co.c.EndPhase(sp)
	me := co.c.Rank()
	type group struct {
		src  int
		recv []int
	}
	var groups []group
	gid := make([]int, len(indices))
	size := 0
	for x, i := range indices {
		size = max(size, i+1)
		s, rv := src(i), recv(i)
		g := slices.IndexFunc(groups, func(g group) bool { return g.src == s && sameSet(g.recv, rv) })
		if g < 0 {
			g = len(groups)
			groups = append(groups, group{src: s, recv: rv})
		}
		gid[x] = g
	}
	out := make([]*matrix.Dense, size)
	var blocks []int
	for g, grp := range groups {
		blocks = blocks[:0]
		for x, i := range indices {
			if gid[x] == g {
				blocks = append(blocks, i)
			}
		}
		if me == grp.src {
			// Resident blocks are used in place; the stack only travels.
			for _, i := range blocks {
				out[i] = get(i)
			}
		} else if !slices.Contains(grp.recv, me) {
			continue
		}
		if !slices.ContainsFunc(grp.recv, func(n int) bool { return n != grp.src }) {
			// Every receiver is the owner: nothing travels, skip the stack.
			continue
		}
		var payload *matrix.Dense
		if me == grp.src {
			payload = matrix.New(len(blocks)*r, r)
			for bi, i := range blocks {
				copyBlock(payload, bi, 0, get(i), 0, 0, r)
			}
		}
		got := co.bcast(tag+"/g"+strconv.Itoa(blocks[0]), grp.src, grp.recv, payload, len(blocks)*r, true)
		if me != grp.src {
			for bi, i := range blocks {
				out[i] = got.Slice(bi*r, (bi+1)*r, 0, r)
			}
		}
	}
	return out
}

// RowBcast broadcasts the column panel {(bi, col) : rlo ≤ bi < rhi} along
// its block rows: block (bi, col) goes from its owner to every rank owning
// a block (bi, bj) with bj ≥ jmin. Blocks sharing source and receiver set
// travel as one stacked panel message. All grid ranks must call it with
// identical arguments; get is consulted only for resident blocks.
func (co *Collectives) RowBcast(tag string, col, rlo, rhi, jmin int, get func(bi int) *matrix.Dense, r int) []*matrix.Dense {
	return co.PanelBcast(tag, span(rlo, rhi),
		func(bi int) int { return co.Node(bi, col) },
		func(bi int) []int { return co.RowReceivers(jmin, bi) },
		get, r)
}

// ColBcast broadcasts the row panel {(row, bj) : clo ≤ bj < chi} down its
// block columns: block (row, bj) goes from its owner to every rank owning
// a block (bi, bj) with bi ≥ imin.
func (co *Collectives) ColBcast(tag string, row, clo, chi, imin int, get func(bj int) *matrix.Dense, r int) []*matrix.Dense {
	return co.PanelBcast(tag, span(clo, chi),
		func(bj int) int { return co.Node(row, bj) },
		func(bj int) []int { return co.ColReceivers(imin, bj) },
		get, r)
}

// span returns the indices lo, lo+1, …, hi-1.
func span(lo, hi int) []int {
	out := make([]int, 0, max(hi-lo, 0))
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// ReduceSum performs an element-wise sum reduction of one matrix per
// participant, delivered at root; every participant passes its
// contribution and all but the root receive nil back. The reduction runs
// over a binomial tree on list positions, so the summation order is a
// deterministic function of the participant list — identical on every run
// and for every broadcast kind.
func (co *Collectives) ReduceSum(tag string, root int, participants []int, mine *matrix.Dense) *matrix.Dense {
	sp := co.c.Phase("reduce " + tag)
	defer co.c.EndPhase(sp)
	me := co.c.Rank()
	idx := -1
	for i, n := range participants {
		if n == me {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("engine: rank %d called ReduceSum %q without being a participant", me, tag))
	}
	acc := mine.Clone()
	n := len(participants)
	for offset := 1; offset < n; offset *= 2 {
		if idx&offset != 0 {
			co.c.Send(participants[idx-offset], fmt.Sprintf("%s/o%d", tag, offset), acc)
			acc = nil
			break
		}
		if idx+offset < n {
			part := co.c.Recv(participants[idx+offset], fmt.Sprintf("%s/o%d", tag, offset))
			addInto(acc, part)
		}
	}
	if idx == 0 {
		if participants[0] != root {
			co.c.Send(root, tag+"/root", acc)
			return nil
		}
		return acc
	}
	if me == root && participants[0] != root {
		return co.c.Recv(participants[0], tag+"/root")
	}
	return nil
}

// addInto accumulates src into dst element-wise.
func addInto(dst, src *matrix.Dense) {
	r, c := dst.Dims()
	sr, sc := src.Dims()
	if r != sr || c != sc {
		panic(fmt.Sprintf("engine: reduce shape mismatch %d×%d vs %d×%d", r, c, sr, sc))
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			dst.Add(i, j, src.At(i, j))
		}
	}
}
