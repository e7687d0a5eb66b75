package model

import (
	"sync"

	"mzqos/internal/chernoff"
)

// This file preserves the pre-optimization admission path verbatim in
// behaviour and cost profile: cold Brent minimizations over the full θ
// interval, a coarse mutex around a per-N map, O(n) glitch re-summation on
// every call (O(N²) across a linear scan), and linear N_max scans. It is
// the oracle the property tests hold the fast path to, and the baseline
// the seed-vs-fast benchmarks race it against in the same binary rather
// than against a remembered number.

// seedScan carries the seed code's memoization state: a flat bound map
// behind one mutex, exactly as the original Model held it.
type seedScan struct {
	m     *Model
	mu    sync.Mutex
	cache map[int]float64
}

func newSeedScan(m *Model) *seedScan {
	return &seedScan{m: m, cache: make(map[int]float64)}
}

func (s *seedScan) lateBound(n int) (float64, error) {
	if n == 0 {
		return 0, nil
	}
	s.mu.Lock()
	if v, ok := s.cache[n]; ok {
		s.mu.Unlock()
		return v, nil
	}
	s.mu.Unlock()
	tr, err := s.m.RoundTransform(n)
	if err != nil {
		return 0, err
	}
	res, err := chernoff.Bound(tr, s.m.cfg.RoundLength)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.cache[n] = res.Bound
	s.mu.Unlock()
	return res.Bound, nil
}

func (s *seedScan) glitchBound(n int) (float64, error) {
	var sum float64
	for k := 1; k <= n; k++ {
		b, err := s.lateBound(k)
		if err != nil {
			return 0, err
		}
		sum += b
	}
	v := sum / float64(n)
	if v > 1 {
		v = 1
	}
	return v, nil
}

func (s *seedScan) streamErrorBound(n, rounds, glitches int) (float64, error) {
	pg, err := s.glitchBound(n)
	if err != nil {
		return 0, err
	}
	return chernoff.BinomialUpperTail(rounds, pg, glitches)
}

func (s *seedScan) nMaxFor(g Guarantee) (int, error) {
	if err := g.validate(); err != nil {
		return 0, err
	}
	for n := 1; n <= s.m.maxSearchN; n++ {
		var b float64
		var err error
		if g.Rounds == 0 {
			b, err = s.lateBound(n)
		} else {
			b, err = s.streamErrorBound(n, g.Rounds, g.Glitches)
		}
		if err != nil {
			return 0, err
		}
		if b > g.Threshold {
			if n == 1 {
				return 0, ErrOverload
			}
			return n - 1, nil
		}
	}
	return s.m.maxSearchN, nil
}

// SeedNMaxFor answers NMaxFor with the seed algorithm and a cold cache:
// every call re-derives all bounds from scratch, which is what the seed
// code paid whenever the disk configuration or round length changed.
func (m *Model) SeedNMaxFor(g Guarantee) (int, error) {
	return newSeedScan(m).nMaxFor(g)
}

// SeedBuildTable is BuildTable as the seed implemented it: one guarantee
// at a time, linear scans, with bound memoization shared across the specs
// (as the seed's model-level cache provided) but glitch sums recomputed on
// every probe.
func SeedBuildTable(m *Model, specs []Guarantee) (*Table, error) {
	s := newSeedScan(m)
	entries := make([]TableEntry, len(specs))
	for i, g := range specs {
		n, err := s.nMaxFor(g)
		if err != nil {
			if err == ErrOverload {
				n = 0
			} else {
				return nil, err
			}
		}
		entries[i] = TableEntry{Guarantee: g, NMax: n}
	}
	return newTable(entries), nil
}
