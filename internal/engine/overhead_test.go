package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

// TestDistributedLUAllocBudget pins the engine's per-run overhead on
// BenchmarkDistributedLU's problem (2×2, n=64, 8×8 blocks). The engine
// with per-block scatter/gather messages and per-step receiver maps made
// about 4,900 allocations per run; coalesced packs and memoised schedules
// brought it near 1,600.
func TestDistributedLUAllocBudget(t *testing.T) {
	const budget = 2000
	run := benchLU(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > budget {
		t.Fatalf("distributed LU allocates %.0f times per run, budget %d", allocs, budget)
	}
}

// sentMsg is one message a recordingTransport saw enter the fabric.
type sentMsg struct {
	src, dst int
	tag      string
	data     *matrix.Dense
}

// recordingTransport logs every message (payload pointer included) on
// its way into the wrapped fabric.
type recordingTransport struct {
	Transport
	mu   sync.Mutex
	sent []sentMsg
}

func (t *recordingTransport) Send(src, dst int, tag string, data *matrix.Dense) {
	t.mu.Lock()
	t.sent = append(t.sent, sentMsg{src, dst, tag, data})
	t.mu.Unlock()
	t.Transport.Send(src, dst, tag, data)
}

// withPrefix returns the recorded cross-rank messages whose tag starts
// with prefix.
func (t *recordingTransport) withPrefix(prefix string) []sentMsg {
	var out []sentMsg
	for _, m := range t.sent {
		if m.src != m.dst && strings.HasPrefix(m.tag, prefix) {
			out = append(out, m)
		}
	}
	return out
}

func TestScatterGatherOneMessagePerOwner(t *testing.T) {
	// Every non-root owner gets its whole share as one scatter/<rank>
	// pack and returns it as one gather/<rank> pack; ranks owning no
	// block exchange nothing. The round trip is exact.
	const nb, r = 6, 2
	a := matrix.Random(nb*r, nb*r, rand.New(rand.NewSource(401)))
	lone, err := distribution.UniformBlockCyclic(2, 2, 1, 1) // only rank 0 owns a block
	if err != nil {
		t.Fatal(err)
	}
	cases := []distribution.Distribution{lone}
	for _, ds := range crosscheckGrids(t, nb) {
		cases = append(cases, ds...)
	}
	for _, d := range cases {
		n := ranksOf(d)
		nbr, nbc := d.Blocks()
		full := a.Slice(0, nbr*r, 0, nbc*r).Clone()
		rec := &recordingTransport{Transport: NewMemTransport(n)}
		var out *matrix.Dense
		w, err := RunOpts(n, Options{Transport: rec}, func(c *Comm) error {
			s, err := Scatter(c, d, pick(c.Rank() == 0, full), r)
			if err != nil {
				return err
			}
			g, err := Gather(c, d, s)
			if c.Rank() == 0 {
				out = g
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(full) {
			t.Fatalf("%s: scatter/gather round trip corrupted the matrix", d.Name())
		}
		shares := sharesOf(t, d)
		owners := 0
		for o := 1; o < n; o++ {
			blocks := len(shares[o])
			if blocks == 0 {
				continue
			}
			owners++
			for _, leg := range []struct {
				prefix   string
				src, dst int
			}{{"scatter", 0, o}, {"gather", o, 0}} {
				tag := fmt.Sprintf("%s/%d", leg.prefix, o)
				var got []sentMsg
				for _, m := range rec.withPrefix(tag) {
					if m.tag == tag {
						got = append(got, m)
					}
				}
				if len(got) != 1 || got[0].src != leg.src || got[0].dst != leg.dst {
					t.Fatalf("%s: %d messages tagged %s, want one from %d to %d", d.Name(), len(got), tag, leg.src, leg.dst)
				}
				if rows, cols := got[0].data.Dims(); rows != blocks*r || cols != r {
					t.Fatalf("%s: %s pack is %d×%d, want %d blocks of %d×%d", d.Name(), tag, rows, cols, blocks, r, r)
				}
			}
		}
		if len(rec.withPrefix("scatter/")) != owners || len(rec.withPrefix("gather/")) != owners || w.Messages() != 2*owners {
			t.Fatalf("%s: %d messages for %d non-root owners, want one each way", d.Name(), w.Messages(), owners)
		}
	}
}

func TestCheckpointGatherCopiesLiveStore(t *testing.T) {
	// A checkpoint gather must send copies: the store keeps factoring
	// after it, so a share handed over by reference would have changed
	// under rank 0 by the end of the run. Resuming from the checkpoint
	// must still reproduce the uninterrupted factors bit for bit.
	d := faultTestDist(t, 6)
	const r, at = 2, 3
	a := matrix.RandomWellConditioned(12, rand.New(rand.NewSource(402)))

	rec := &recordingTransport{Transport: NewMemTransport(4)}
	var ckpt, clean *matrix.Dense
	_, err := RunOpts(4, Options{Transport: rec}, func(c *Comm) error {
		s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
		if err != nil {
			return err
		}
		c.SetStepHook(func(k int) error {
			if k != at {
				return nil
			}
			g, err := GatherTag(c, d, s, fmt.Sprintf("ckpt/%d", k))
			if c.Rank() == 0 {
				ckpt = g
			}
			return err
		})
		if err := LU(c, d, s); err != nil {
			return err
		}
		g, err := Gather(c, d, s)
		if c.Rank() == 0 {
			clean = g
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := rec.withPrefix(fmt.Sprintf("ckpt/%d/", at))
	if len(sent) == 0 {
		t.Fatal("checkpoint gather sent nothing")
	}
	shares := sharesOf(t, d)
	for _, m := range sent {
		for i, pos := range shares[m.src] {
			want := ckpt.Slice(pos[0]*r, (pos[0]+1)*r, pos[1]*r, (pos[1]+1)*r)
			if !m.data.Slice(i*r, (i+1)*r, 0, r).Equal(want) {
				t.Fatalf("rank %d's checkpoint share changed after it was sent: block %v aliases the live store", m.src, pos)
			}
		}
	}

	resumed, _, err := runLUFrom(t, d, ckpt, r, at)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Equal(clean) {
		t.Fatal("checkpoint-resumed LU differs from the uninterrupted run")
	}
}

func TestScatterGatherSplitsLargeShares(t *testing.T) {
	// A share over maxPackBytes travels as several packs of at most
	// packBlocks(r) blocks, tagged prefix/<rank> and then
	// prefix/<rank>/<part>. A limit of exactly three blocks' bytes packs
	// three blocks, one byte less packs two, and a limit below one block
	// still sends each block on its own. Every split must leave the
	// checkpoint, the final factors and a resume from the checkpoint
	// bit-identical to the single-pack run.
	const nb, r, at = 6, 2, 3
	d := faultTestDist(t, nb)
	shares := sharesOf(t, d)
	a := matrix.RandomWellConditioned(nb*r, rand.New(rand.NewSource(403)))
	run := func() (ckpt, out *matrix.Dense, rec *recordingTransport) {
		rec = &recordingTransport{Transport: NewMemTransport(4)}
		_, err := RunOpts(4, Options{Transport: rec}, func(c *Comm) error {
			s, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			c.SetStepHook(func(k int) error {
				if k != at {
					return nil
				}
				g, err := GatherTag(c, d, s, fmt.Sprintf("ckpt/%d", k))
				if c.Rank() == 0 {
					ckpt = g
				}
				return err
			})
			if err := LU(c, d, s); err != nil {
				return err
			}
			g, err := Gather(c, d, s)
			if c.Rank() == 0 {
				out = g
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return ckpt, out, rec
	}
	wantCkpt, wantOut, _ := run()

	defer func(old int) { maxPackBytes = old }(maxPackBytes)
	block := 8 * r * r
	for _, lim := range []struct{ bytes, per int }{{3 * block, 3}, {3*block - 1, 2}, {block - 1, 1}} {
		maxPackBytes = lim.bytes
		ckpt, out, rec := run()
		if !ckpt.Equal(wantCkpt) || !out.Equal(wantOut) {
			t.Fatalf("limit %d B: split packs changed the checkpoint or the factors", lim.bytes)
		}
		for o := 1; o < 4; o++ {
			for _, prefix := range []string{"scatter", fmt.Sprintf("ckpt/%d", at), "gather"} {
				base := fmt.Sprintf("%s/%d", prefix, o)
				var got []sentMsg
				for _, m := range rec.withPrefix(base) {
					if m.tag == base || strings.HasPrefix(m.tag, base+"/") {
						got = append(got, m)
					}
				}
				if want := (len(shares[o]) + lim.per - 1) / lim.per; len(got) != want {
					t.Fatalf("limit %d B: %d %s packs for %d blocks, want %d", lim.bytes, len(got), base, len(shares[o]), want)
				}
				for part, m := range got {
					tag := base
					if part > 0 {
						tag = fmt.Sprintf("%s/%d", base, part)
					}
					size := min(lim.per, len(shares[o])-part*lim.per)
					if rows, _ := m.data.Dims(); m.tag != tag || rows != size*r {
						t.Fatalf("limit %d B: pack %d of %s is %q with %d rows, want %q with %d", lim.bytes, part, base, m.tag, rows, tag, size*r)
					}
				}
			}
		}
		resumed, _, err := runLUFrom(t, d, ckpt, r, at)
		if err != nil {
			t.Fatal(err)
		}
		if !resumed.Equal(wantOut) {
			t.Fatalf("limit %d B: resume from a split checkpoint differs from the uninterrupted run", lim.bytes)
		}
	}
}

func TestMailboxTakeReleasesPayload(t *testing.T) {
	// A delivered message must not stay reachable from the queue's
	// backing array: a share travels as one pack, so a stale slot would
	// keep a whole share alive for the rest of the run.
	m := newMailbox()
	m.put("a", matrix.New(1, 1))
	m.put("b", matrix.New(1, 1))
	for _, tag := range []string{"a", "b"} {
		if _, err := m.take(context.Background(), tag); err != nil {
			t.Fatal(err)
		}
	}
	for i, msg := range m.queue[:cap(m.queue)] {
		if msg.data != nil {
			t.Fatalf("queue slot %d still holds a delivered payload", i)
		}
	}
}

// sharesOf returns every rank's blocks in pack order.
func sharesOf(t *testing.T, d distribution.Distribution) [][][2]int {
	t.Helper()
	shares, err := blocksByOwner(d, ranksOf(d))
	if err != nil {
		t.Fatal(err)
	}
	return shares
}

// runLUFrom scatters a checkpoint, resumes LU at step startK and gathers
// the packed factors at rank 0.
func runLUFrom(t *testing.T, d distribution.Distribution, ckpt *matrix.Dense, r, startK int) (*matrix.Dense, *World, error) {
	t.Helper()
	var out *matrix.Dense
	w, err := Run(4, func(c *Comm) error {
		s, err := Scatter(c, d, pick(c.Rank() == 0, ckpt), r)
		if err != nil {
			return err
		}
		if err := LUResume(c, d, s, startK); err != nil {
			return err
		}
		g, err := Gather(c, d, s)
		if c.Rank() == 0 {
			out = g
		}
		return err
	})
	return out, w, err
}
