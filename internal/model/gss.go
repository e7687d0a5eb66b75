package model

import "fmt"

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
	// AdmittedN is the stream count the configuration admits (zero when
	// the guarantee is unattainable).
	AdmittedN int
}

// GSSSweep evaluates a set of group counts at a subperiod-lateness
// threshold delta, returning for each the admission limit and the buffer
// requirement — the classic GSS throughput-vs-memory trade-off curve. Each
// limit is the GSS analogue of eq. (3.1.7): the subperiod bound depends on
// n only through the group size k = ⌈n/G⌉, so the walk reads b(k) off the
// chain at t/G — one warm solve per new k — and stops at the first
// violating k, admitting (k−1)·G, or at the search cap. Each entry's
// LateBound is the bound at its admitted group size. A group count no
// stream count meets reports a zero entry; so does one with more groups
// than the cap, whose subperiod is shorter than a transfer's mean.
func (m *Model) GSSSweep(groups []int, delta float64) ([]GSSResult, error) {
	out := make([]GSSResult, len(groups))
	for i, g := range groups {
		if g < 1 {
			return nil, fmt.Errorf("%w: groups must be positive", ErrConfig)
		}
		sub := m.cfg.RoundLength / float64(g)
		r := m.chainAt(sub)
		exp, err := m.walk(Guarantee{Threshold: delta}, func(n int) (float64, error) {
			k := (n + g - 1) / g
			c, err := r.at(k)
			if err != nil {
				return 0, err
			}
			return c.res[k].Bound, nil
		})
		r.flush()
		if err != nil {
			return nil, err
		}
		out[i].Groups = g
		if exp.Overload {
			continue
		}
		out[i].GroupSize = (exp.NMax + g - 1) / g
		out[i].SubPeriod, out[i].LateBound, out[i].AdmittedN = sub, exp.ValueAtNMax, exp.NMax
		if m.hasSizes {
			out[i].BufferPerStream = (1 + 1/float64(g)) * m.cfg.Sizes.Mean()
		}
	}
	return out, nil
}
