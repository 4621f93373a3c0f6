package engine

import (
	"fmt"
	"slices"
	"strconv"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// BlockStore is one rank's private collection of r×r blocks, keyed by
// block coordinates. Ranks only ever hold blocks they own (plus transient
// received panels inside a kernel step).
//
// A store built by Scatter or ZeroStore is pack-backed: its blocks are
// views of consecutive r-row bands of its packs, (count·r)×r matrices of
// at most packBlocks(r) blocks each, in row-major (bi, bj) order — exactly
// the messages a coalesced scatter delivers and a gather sends back.
// Kernels write blocks in place and never replace them, so the packs stay
// the store's backing for the whole run.
type BlockStore struct {
	R      int
	Blocks map[[2]int]*matrix.Dense

	packs []*matrix.Dense // the blocks' backing packs, in block order
}

// NewBlockStore returns an empty store for blocks of size r.
func NewBlockStore(r int) *BlockStore {
	return &BlockStore{R: r, Blocks: map[[2]int]*matrix.Dense{}}
}

// Get returns the block at (bi, bj), panicking if the rank does not hold
// it — by construction that would be a distributed-memory violation.
func (s *BlockStore) Get(bi, bj int) *matrix.Dense {
	b, ok := s.Blocks[[2]int{bi, bj}]
	if !ok {
		panic(fmt.Sprintf("engine: block (%d,%d) not resident", bi, bj))
	}
	return b
}

// MaxPackBytes is the largest payload of one scatter or gather message. A
// share beyond it travels as several packs, so no message comes near the
// TCP fabric's 1 GiB frame limit.
const MaxPackBytes = 256 << 20

// maxPackBytes is MaxPackBytes, lowered by tests to split small shares.
var maxPackBytes = MaxPackBytes

// packBlocks returns how many r×r blocks one pack holds: as many as fit
// in maxPackBytes, and at least one.
func packBlocks(r int) int {
	return max(1, maxPackBytes/(8*r*r))
}

// packSizes splits a share of count blocks into the block counts of its
// packs: full packs of packBlocks(r) blocks, then the remainder.
func packSizes(count, r int) []int {
	per := packBlocks(r)
	sizes := make([]int, 0, (count+per-1)/per)
	for lo := 0; lo < count; lo += per {
		sizes = append(sizes, min(per, count-lo))
	}
	return sizes
}

// packedStore returns a store whose blocks are views of the packs' r-row
// bands, one per position of order.
func packedStore(packs []*matrix.Dense, order [][2]int, r int) *BlockStore {
	s := &BlockStore{R: r, Blocks: make(map[[2]int]*matrix.Dense, len(order)), packs: packs}
	per := packBlocks(r)
	for i, pos := range order {
		j := i % per
		s.Blocks[pos] = packs[i/per].Slice(j*r, (j+1)*r, 0, r)
	}
	return s
}

// node returns the flat rank owning block (bi, bj).
func node(d distribution.Distribution, bi, bj int) int {
	_, q := d.Dims()
	pi, pj := d.Owner(bi, bj)
	return pi*q + pj
}

// blocksByOwner lists every rank's blocks in row-major order — the layout
// of each rank's scatter and gather packs. The lists share one backing
// array, sized by a counting pass.
func blocksByOwner(d distribution.Distribution, n int) ([][][2]int, error) {
	nbr, nbc := d.Blocks()
	counts := make([]int, n)
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			o := node(d, bi, bj)
			if o < 0 || o >= n {
				return nil, fmt.Errorf("engine: block (%d,%d) owned by rank %d outside a world of %d", bi, bj, o, n)
			}
			counts[o]++
		}
	}
	all := make([][2]int, nbr*nbc)
	out := make([][][2]int, n)
	for o, off := 0, 0; o < n; o++ {
		out[o] = all[off : off : off+counts[o]]
		off += counts[o]
	}
	for bi := 0; bi < nbr; bi++ {
		for bj := 0; bj < nbc; bj++ {
			o := node(d, bi, bj)
			out[o] = append(out[o], [2]int{bi, bj})
		}
	}
	return out, nil
}

// packTag names the scatter or gather message carrying one pack of rank's
// share: prefix/<rank> for the first, prefix/<rank>/<part> for the rest.
func packTag(prefix string, rank, part int) string {
	tag := prefix + "/" + strconv.Itoa(rank)
	if part > 0 {
		tag += "/" + strconv.Itoa(part)
	}
	return tag
}

// checkPack rejects a pack whose shape does not hold count r×r blocks — a
// sender whose distribution disagrees with the receiver's.
func checkPack(pack *matrix.Dense, count, r, from int) error {
	if rows, cols := pack.Dims(); rows != count*r || cols != r {
		return fmt.Errorf("engine: pack from rank %d is %d×%d, want %d blocks of %d×%d", from, rows, cols, count, r, r)
	}
	return nil
}

// copyBlock copies the r×r block of src at block offset (si, sj) into dst
// at block offset (di, dj), row by row without allocating views.
func copyBlock(dst *matrix.Dense, di, dj int, src *matrix.Dense, si, sj, r int) {
	for i := 0; i < r; i++ {
		copy(dst.RawRow(di*r + i)[dj*r:(dj+1)*r], src.RawRow(si*r + i)[sj*r:(sj+1)*r])
	}
}

// Scatter distributes the blocks of full (present only at rank 0) to their
// owners and returns this rank's store. blockSize r must divide the matrix
// order. Each non-root owner receives its share as packs (its blocks
// stacked in row-major order; one pack, tagged scatter/<rank>, unless the
// share exceeds MaxPackBytes), and its store's blocks are views into them.
// Rank 0 builds and sends the packs one at a time and never holds a second
// full copy of the matrix.
func Scatter(c *Comm, d distribution.Distribution, full *matrix.Dense, r int) (*BlockStore, error) {
	me := c.Rank()
	owners, err := blocksByOwner(d, c.N())
	if err != nil {
		return nil, err
	}
	if me != 0 {
		mine := owners[me]
		var packs []*matrix.Dense
		for part, size := range packSizes(len(mine), r) {
			pack := c.Recv(0, packTag("scatter", me, part))
			if err := checkPack(pack, size, r, 0); err != nil {
				return nil, err
			}
			packs = append(packs, pack)
		}
		return packedStore(packs, mine, r), nil
	}
	nbr, nbc := d.Blocks()
	if full == nil {
		return nil, fmt.Errorf("engine: rank 0 must hold the full matrix")
	}
	if fr, fc := full.Dims(); fr != nbr*r || fc != nbc*r {
		return nil, fmt.Errorf("engine: %d×%d matrix does not tile into %d×%d blocks of %d", fr, fc, nbr, nbc, r)
	}
	// pack copies the share's blocks out of full, one pack at a time.
	pack := func(share [][2]int, emit func(part int, p *matrix.Dense)) {
		lo := 0
		for part, size := range packSizes(len(share), r) {
			p := matrix.New(size*r, r)
			for i, pos := range share[lo : lo+size] {
				copyBlock(p, i, 0, full, pos[0], pos[1], r)
			}
			emit(part, p)
			lo += size
		}
	}
	for o := 1; o < len(owners); o++ {
		pack(owners[o], func(part int, p *matrix.Dense) {
			c.sendOwned(o, packTag("scatter", o, part), p)
		})
	}
	var packs []*matrix.Dense
	pack(owners[0], func(_ int, p *matrix.Dense) { packs = append(packs, p) })
	return packedStore(packs, owners[0], r), nil
}

// Gather collects every block back to rank 0, returning the assembled
// matrix there and nil elsewhere. It is the run's final collection: each
// non-root owner sends its store's packs (tagged gather/<rank>, and
// gather/<rank>/<part> after the first) without a copy — the caller must
// not modify the store afterwards.
func Gather(c *Comm, d distribution.Distribution, store *BlockStore) (*matrix.Dense, error) {
	return gather(c, d, store, "gather", true)
}

// GatherTag is a non-final Gather under a caller-chosen tag prefix, so
// repeated collections in one run (checkpoints plus the final gather)
// travel on disjoint channels. The store stays live, so every pack is
// sent as a copy.
func GatherTag(c *Comm, d distribution.Distribution, store *BlockStore, prefix string) (*matrix.Dense, error) {
	return gather(c, d, store, prefix, false)
}

// gather sends every non-root store's packs to rank 0 — handed over when
// handOver allows, copied otherwise — and assembles the matrix at rank 0.
func gather(c *Comm, d distribution.Distribution, store *BlockStore, prefix string, handOver bool) (*matrix.Dense, error) {
	me := c.Rank()
	r := store.R
	owners, err := blocksByOwner(d, c.N())
	if err != nil {
		return nil, err
	}
	if me != 0 {
		if n, want := len(store.packs), len(packSizes(len(owners[me]), r)); n != want {
			return nil, fmt.Errorf("engine: rank %d's store holds %d packs, its %d blocks need %d", me, n, len(owners[me]), want)
		}
		for part, pack := range store.packs {
			if !handOver {
				pack = pack.Clone()
			}
			c.sendOwned(0, packTag(prefix, me, part), pack)
		}
		return nil, nil
	}
	nbr, nbc := d.Blocks()
	full := matrix.New(nbr*r, nbc*r)
	for _, pos := range owners[0] {
		copyBlock(full, pos[0], pos[1], store.Get(pos[0], pos[1]), 0, 0, r)
	}
	for o := 1; o < len(owners); o++ {
		lo := 0
		for part, size := range packSizes(len(owners[o]), r) {
			pack := c.Recv(o, packTag(prefix, o, part))
			if err := checkPack(pack, size, r, o); err != nil {
				return nil, err
			}
			for i, pos := range owners[o][lo : lo+size] {
				copyBlock(full, pos[0], pos[1], pack, i, 0, r)
			}
			lo += size
		}
	}
	return full, nil
}

// ZeroStore returns a pack-backed store holding a zero r×r block for every
// position this rank owns — the initial accumulator of MMResume. It is
// purely local (no communication).
func ZeroStore(c *Comm, d distribution.Distribution, r int) (*BlockStore, error) {
	owners, err := blocksByOwner(d, c.N())
	if err != nil {
		return nil, err
	}
	mine := owners[c.Rank()]
	var packs []*matrix.Dense
	for _, size := range packSizes(len(mine), r) {
		packs = append(packs, matrix.New(size*r, r))
	}
	return packedStore(packs, mine, r), nil
}

// squareBlocks validates that the distribution tiles a square block matrix
// and returns the block order.
func squareBlocks(d distribution.Distribution, kernel string) (int, error) {
	nbr, nbc := d.Blocks()
	if nbr != nbc {
		return 0, fmt.Errorf("engine: %s needs a square block matrix, got %d×%d", kernel, nbr, nbc)
	}
	return nbr, nil
}

// MM executes the distributed outer-product multiplication C = A·B: at
// step k the owners of A(·,k) broadcast along their block rows and the
// owners of B(k,·) down their block columns — panel-aggregated, so blocks
// sharing a source and receiver set travel as one stacked message — and
// every rank updates its resident C blocks. The message count equals the
// closed-form distribution.MMCommVolume exactly for the flat broadcast,
// which tests assert; ring, segmented-ring and tree schedules reshape who
// forwards to whom but deliver the same panels.
func MM(c *Comm, d distribution.Distribution, a, b *BlockStore) (*BlockStore, error) {
	cStore, err := ZeroStore(c, d, a.R)
	if err != nil {
		return nil, err
	}
	if err := MMResume(c, d, a, b, cStore, 0); err != nil {
		return nil, err
	}
	return cStore, nil
}

// MMResume continues the outer-product multiplication from step startK,
// accumulating into cStore (this rank's resident C blocks, usually from
// ZeroStore or a scattered checkpoint). Steps run in the same k order as a
// fresh run, so resuming from a checkpoint of the first startK steps is
// bit-identical to never having stopped.
func MMResume(c *Comm, d distribution.Distribution, a, b *BlockStore, cStore *BlockStore, startK int) error {
	nb, err := squareBlocks(d, "MM")
	if err != nil {
		return err
	}
	r := a.R
	co := NewCollectives(c, d)
	// The resident C blocks never change during the run.
	pos := make([][2]int, 0, len(cStore.Blocks))
	blks := make([]*matrix.Dense, 0, len(cStore.Blocks))
	for p, blk := range cStore.Blocks {
		pos, blks = append(pos, p), append(blks, blk)
	}
	mode := c.Numerics()

	for k := startK; k < nb; k++ {
		if err := c.Step(k); err != nil {
			return err
		}
		aPanel := co.RowBcast(fmt.Sprintf("A/%d", k), k, 0, nb, 0,
			func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)
		bPanel := co.ColBcast(fmt.Sprintf("B/%d", k), k, 0, nb, 0,
			func(bj int) *matrix.Dense { return b.Get(k, bj) }, r)
		if err := c.Compute(fmt.Sprintf("mm update k=%d", k), func() error {
			// Each resident C block is a disjoint output, so splitting them
			// across workers is bit-identical to the serial loop.
			parallelDo(c.Parallelism(), len(pos), func(i int) {
				blks[i].AddMulNumerics(1, aPanel[pos[i][0]], bPanel[pos[i][1]], mode)
			})
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// LU executes the distributed right-looking LU factorization without
// pivoting, overwriting the store's blocks with the packed factors. The
// communication per step has the exact structure of the simulator's model
// and the closed-form distribution.LUCommVolume:
//
//  1. the factored diagonal block goes once to each distinct owner of the
//     sub-diagonal blocks of column k (for the L solves);
//  2. the diagonal goes once to each member of block row k's trailing
//     receiver set (for the U solves);
//  3. L panel blocks sharing a source and receiver set travel as one
//     stacked message, U panels likewise.
//
// Tests assert the kernel's message and byte counts equal LUCommVolume for
// every distribution family under the flat broadcast — analytic model,
// virtual-time simulator and real concurrent execution all agree.
func LU(c *Comm, d distribution.Distribution, a *BlockStore) error {
	return LUResume(c, d, a, 0)
}

// LUResume continues the LU factorization from panel startK, assuming the
// store already holds the result of steps 0..startK-1 (a checkpoint). The
// step order and arithmetic match a fresh run exactly, so resumption is
// bit-identical to never having stopped.
func LUResume(c *Comm, d distribution.Distribution, a *BlockStore, startK int) error {
	nb, err := squareBlocks(d, "LU")
	if err != nil {
		return err
	}
	r := a.R
	co := NewCollectives(c, d)
	me := c.Rank()
	var mine [][2]int // this rank's trailing blocks, rebuilt per step

	for k := startK; k < nb; k++ {
		if err := c.Step(k); err != nil {
			return err
		}
		diagOwner := co.Node(k, k)
		// Distinct owners of column k's blocks from the diagonal down, in
		// deterministic first-appearance order: the diagonal owner heads
		// the list, and Bcast drops it as the root, leaving the broadcast
		// chain of the sub-diagonal owners.
		colOwners := co.ColReceivers(k, k)

		// 1+2. Diagonal factor and its two broadcasts.
		var diag *matrix.Dense
		if diagOwner == me {
			diag = a.Get(k, k)
			if err := c.Compute(fmt.Sprintf("lu factor k=%d", k), func() error {
				return matrix.FactorNoPivot(diag)
			}); err != nil {
				return fmt.Errorf("engine: step %d: %w", k, err)
			}
		}
		if got := co.bcastIfMember(fmt.Sprintf("dC/%d", k), diagOwner, colOwners, diag, r); got != nil {
			diag = got
		}
		if got := co.bcastIfMember(fmt.Sprintf("dR/%d", k), diagOwner, co.RowReceivers(k, k), diag, r); got != nil {
			diag = got
		}

		// 3a. L panel: my sub-diagonal blocks of column k, then grouped
		// row broadcasts.
		if err := c.Compute(fmt.Sprintf("lu lsolve k=%d", k), func() error {
			for bi := k + 1; bi < nb; bi++ {
				if co.Node(bi, k) != me {
					continue
				}
				if err := a.Get(bi, k).SolveUpperRight(diag); err != nil {
					return fmt.Errorf("engine: step %d row %d: %w", k, bi, err)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		lPanel := co.RowBcast(fmt.Sprintf("L/%d", k), k, k+1, nb, k,
			func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)

		// 3b. U panel: triangular solves then grouped column broadcasts.
		if err := c.Compute(fmt.Sprintf("lu usolve k=%d", k), func() error {
			for bj := k + 1; bj < nb; bj++ {
				if co.Node(k, bj) != me {
					continue
				}
				diag.SolveLowerUnitNumerics(a.Get(k, bj), c.Numerics())
			}
			return nil
		}); err != nil {
			return err
		}
		uPanel := co.ColBcast(fmt.Sprintf("U/%d", k), k, k+1, nb, k,
			func(bj int) *matrix.Dense { return a.Get(k, bj) }, r)

		// 4. Trailing update on my blocks — disjoint outputs, so the split
		// across workers is bit-identical to the serial loop.
		if err := c.Compute(fmt.Sprintf("lu update k=%d", k), func() error {
			mine = mine[:0]
			for bi := k + 1; bi < nb; bi++ {
				for bj := k + 1; bj < nb; bj++ {
					if co.Node(bi, bj) == me {
						mine = append(mine, [2]int{bi, bj})
					}
				}
			}
			mode := c.Numerics()
			parallelDo(c.Parallelism(), len(mine), func(i int) {
				bi, bj := mine[i][0], mine[i][1]
				a.Get(bi, bj).AddMulNumerics(-1, lPanel[bi], uPanel[bj], mode)
			})
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// bcastIfMember runs Bcast when this rank is the root or in the receiver
// set and returns the payload there, nil otherwise — the glue that lets
// SPMD kernel bodies issue conditional collectives in one line.
func (co *Collectives) bcastIfMember(tag string, root int, receivers []int, data *matrix.Dense, rows int) *matrix.Dense {
	me := co.c.Rank()
	if me != root {
		in := false
		for _, n := range receivers {
			if n == me {
				in = true
				break
			}
		}
		if !in {
			return nil
		}
	}
	return co.Bcast(tag, root, receivers, data, rows)
}

// Cholesky executes the distributed right-looking Cholesky factorization
// A = L·Lᵀ (lower variant) on a symmetric positive definite matrix,
// overwriting the store's lower-triangle blocks with L and zeroing the
// strict upper triangle. Only lower-triangle blocks are read. Panel blocks
// sharing a source and needer set travel as one stacked message.
func Cholesky(c *Comm, d distribution.Distribution, a *BlockStore) error {
	return CholeskyResume(c, d, a, 0)
}

// CholeskyResume continues the Cholesky factorization from panel startK,
// assuming the store holds the result of steps 0..startK-1. The final
// upper-triangle zeroing still runs, so a resumed run gathers exactly L.
func CholeskyResume(c *Comm, d distribution.Distribution, a *BlockStore, startK int) error {
	nb, err := squareBlocks(d, "Cholesky")
	if err != nil {
		return err
	}
	r := a.R
	co := NewCollectives(c, d)
	me := c.Rank()

	// needers(k, i): ranks using L(i,k) in the trailing update — owners of
	// row i (columns k+1..i) and column i (rows i..nb-1), in first
	// appearance order.
	needers := func(k, i int) []int {
		var out []int
		add := func(n int) {
			if !slices.Contains(out, n) {
				out = append(out, n)
			}
		}
		for j := k + 1; j <= i; j++ {
			add(co.Node(i, j))
		}
		for m := i; m < nb; m++ {
			add(co.Node(m, i))
		}
		return out
	}

	for k := startK; k < nb; k++ {
		if err := c.Step(k); err != nil {
			return err
		}
		diagOwner := co.Node(k, k)

		// Owners of the sub-diagonal panel, who need L(k,k)ᵀ for their
		// solves, in deterministic order (headed by the diagonal owner,
		// whom Bcast drops as the root).
		panelOwners := co.ColReceivers(k, k)

		var diagT *matrix.Dense // L(k,k)ᵀ, needed by the panel solvers
		if diagOwner == me {
			diag := a.Get(k, k)
			if err := c.Compute(fmt.Sprintf("chol factor k=%d", k), func() error {
				f, err := matrix.FactorCholesky(diag)
				if err != nil {
					return err
				}
				diag.CopyFrom(f.L)
				diagT = f.L.T()
				return nil
			}); err != nil {
				return fmt.Errorf("engine: step %d: %w", k, err)
			}
		}
		if got := co.bcastIfMember(fmt.Sprintf("cd/%d", k), diagOwner, panelOwners, diagT, r); got != nil {
			diagT = got
		}

		// Panel: L(bi,k) = A(bi,k)·L(k,k)^{-T}, then grouped broadcasts to
		// the needer sets.
		if err := c.Compute(fmt.Sprintf("chol solve k=%d", k), func() error {
			for bi := k + 1; bi < nb; bi++ {
				if co.Node(bi, k) != me {
					continue
				}
				if err := a.Get(bi, k).SolveUpperRight(diagT); err != nil {
					return fmt.Errorf("engine: step %d row %d: %w", k, bi, err)
				}
			}
			return nil
		}); err != nil {
			return err
		}
		lPanel := co.PanelBcast(fmt.Sprintf("cl/%d", k), span(k+1, nb),
			func(bi int) int { return co.Node(bi, k) },
			func(bi int) []int { return needers(k, bi) },
			func(bi int) *matrix.Dense { return a.Get(bi, k) }, r)

		// Trailing symmetric update on my lower-triangle blocks — disjoint
		// outputs, so the split across workers is bit-identical.
		if err := c.Compute(fmt.Sprintf("chol update k=%d", k), func() error {
			var mine [][2]int
			for bi := k + 1; bi < nb; bi++ {
				for bj := k + 1; bj <= bi; bj++ {
					if co.Node(bi, bj) == me {
						mine = append(mine, [2]int{bi, bj})
					}
				}
			}
			mode := c.Numerics()
			parallelDo(c.Parallelism(), len(mine), func(i int) {
				bi, bj := mine[i][0], mine[i][1]
				a.Get(bi, bj).AddMulNumerics(-1, lPanel[bi], lPanel[bj].T(), mode)
			})
			return nil
		}); err != nil {
			return err
		}
	}
	// Zero my strict-upper blocks and the upper parts of my diagonal
	// blocks so the gathered matrix is exactly L.
	for pos, blk := range a.Blocks {
		bi, bj := pos[0], pos[1]
		switch {
		case bj > bi:
			blk.Zero()
		case bj == bi:
			n, _ := blk.Dims()
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					blk.Set(i, j, 0)
				}
			}
		}
	}
	return nil
}
