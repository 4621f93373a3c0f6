package engine

import (
	"math/rand"
	"testing"

	"hetgrid/internal/distribution"
	"hetgrid/internal/matrix"
)

func benchDistribution(tb testing.TB, nb int) distribution.Distribution {
	tb.Helper()
	d, err := distribution.UniformBlockCyclic(2, 2, nb, nb)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func BenchmarkDistributedMM(b *testing.B) {
	const nb, r = 8, 8
	rng := rand.New(rand.NewSource(1))
	a := matrix.Random(nb*r, nb*r, rng)
	bm := matrix.Random(nb*r, nb*r, rng)
	d := benchDistribution(b, nb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(4, func(c *Comm) error {
			s1, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			s2, err := Scatter(c, d, pick(c.Rank() == 0, bm), r)
			if err != nil {
				return err
			}
			_, err = MM(c, d, s1, s2)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// benchLU is BenchmarkDistributedLU's problem: a 2×2 uniform block-cyclic
// LU at n=64 in 8×8 blocks. run executes one scatter + LU world.
func benchLU(tb testing.TB) (run func() error) {
	const nb, r = 8, 8
	rng := rand.New(rand.NewSource(2))
	a := matrix.RandomWellConditioned(nb*r, rng)
	d := benchDistribution(tb, nb)
	return func() error {
		_, err := Run(4, func(c *Comm) error {
			store, err := Scatter(c, d, pick(c.Rank() == 0, a), r)
			if err != nil {
				return err
			}
			return LU(c, d, store)
		})
		return err
	}
}

func BenchmarkDistributedLU(b *testing.B) {
	run := benchLU(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessagePingPong(b *testing.B) {
	// Raw mailbox round-trip latency.
	payload := matrix.New(8, 8)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				c.Send(1, "ping", payload)
				c.Recv(1, "pong")
			}
		} else {
			for i := 0; i < b.N; i++ {
				c.Recv(0, "ping")
				c.Send(0, "pong", payload)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
