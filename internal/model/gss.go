package model

import (
	"fmt"

	"mzqos/internal/chernoff"
)

// GSSResult describes one Group Sweeping Scheduling configuration.
//
// GSS [CKY93], cited by the paper as the generalization of its round
// scheme, splits the N streams of a round into G groups served in G
// consecutive subperiods of length t/G, each with its own SCAN sweep.
// G=1 is the paper's scheme (one sweep per round, double buffering);
// larger G shrinks the client buffer — a fragment is consumed right after
// its subperiod instead of waiting out the whole round — at the price of
// shorter sweeps that amortize seeks over fewer requests.
type GSSResult struct {
	// Groups is G.
	Groups int
	// GroupSize is the per-sweep request count ⌈N/G⌉.
	GroupSize int
	// SubPeriod is t/G in seconds.
	SubPeriod float64
	// LateBound is the Chernoff bound on one subperiod overrunning.
	LateBound float64
	// BufferPerStream is the client buffer requirement in bytes:
	// (1 + 1/G)·E[S] — one fragment being consumed plus the fraction of a
	// period during which the next one arrives.
	BufferPerStream float64
	// AdmittedN is the stream count the configuration admits (set by
	// GSSSweep; zero when the guarantee is unattainable).
	AdmittedN int
}

// GSS evaluates Group Sweeping Scheduling with n streams in `groups`
// groups: each subperiod serves ⌈n/G⌉ requests within t/G, bounded with
// exactly the machinery of §3 applied at the subperiod scale.
func (m *Model) GSS(n, groups int) (GSSResult, error) {
	if n < 1 || groups < 1 || groups > n {
		return GSSResult{}, fmt.Errorf("%w: need 1 <= groups <= n", ErrConfig)
	}
	k := (n + groups - 1) / groups
	b, err := m.LateBoundAt(k, m.cfg.RoundLength/float64(groups))
	if err != nil {
		return GSSResult{}, err
	}
	return m.gssResult(groups, k, b), nil
}

// gssResult fills a GSSResult for G groups of k requests whose subperiod
// bound is b.
func (m *Model) gssResult(groups, k int, b float64) GSSResult {
	res := GSSResult{
		Groups:    groups,
		GroupSize: k,
		SubPeriod: m.cfg.RoundLength / float64(groups),
		LateBound: b,
	}
	if m.hasSizes {
		res.BufferPerStream = (1 + 1/float64(groups)) * m.cfg.Sizes.Mean()
	}
	return res
}

// GSSNMax returns the largest stream count admissible with G groups at a
// subperiod-lateness threshold delta: the GSS analogue of eq. (3.1.7). The
// subperiod bound depends on n only through the group size k = ⌈n/G⌉, so
// the walk steps k = 1, 2, … — each solve warm-started from the previous
// θ — and stops at the first k whose bound violates delta, admitting
// (k−1)·G, or where k·G reaches the search cap.
func (m *Model) GSSNMax(groups int, delta float64) (int, error) {
	n, _, err := m.gssWalk(groups, delta)
	return n, err
}

// gssWalk is GSSNMax's walk. It also returns the subperiod bound it solved
// at the admitted group size ⌈n/G⌉: k−1 after a violation, the k that
// reached the cap otherwise.
func (m *Model) gssWalk(groups int, delta float64) (n int, bound float64, err error) {
	if groups < 1 {
		return 0, 0, fmt.Errorf("%w: groups must be positive", ErrConfig)
	}
	if !(delta > 0 && delta < 1) {
		return 0, 0, fmt.Errorf("%w: delta must be in (0,1)", ErrConfig)
	}
	if m.maxSearchN < groups {
		return 0, 0, ErrOverload
	}
	sub := m.cfg.RoundLength / float64(groups)
	var prev chernoff.Result
	for k := 1; ; k++ {
		res, err := m.lateResultAt(k, sub, prev.Theta)
		if err != nil {
			return 0, 0, err
		}
		if res.Bound > delta {
			if k == 1 {
				return 0, 0, ErrOverload
			}
			return (k - 1) * groups, prev.Bound, nil
		}
		if k*groups >= m.maxSearchN {
			return m.maxSearchN, res.Bound, nil
		}
		prev = res
	}
}

// GSSSweep evaluates a set of group counts at a fixed lateness threshold,
// returning for each the admission limit and the buffer requirement — the
// classic GSS throughput-vs-memory trade-off curve. An unattainable group
// count reports a zero entry. Each entry's LateBound is the one its walk
// solved at the admitted group size.
func (m *Model) GSSSweep(groups []int, delta float64) ([]GSSResult, error) {
	out := make([]GSSResult, len(groups))
	for i, g := range groups {
		n, b, err := m.gssWalk(g, delta)
		if err == ErrOverload {
			out[i] = GSSResult{Groups: g}
			continue
		}
		if err != nil {
			return nil, err
		}
		out[i] = m.gssResult(g, (n+g-1)/g, b)
		out[i].AdmittedN = n
	}
	return out, nil
}
