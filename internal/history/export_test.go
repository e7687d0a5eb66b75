package history

// LogLens returns, per histogram series id, how many entries its increment
// log has room for: the initial size until a retained window's changes did
// not fit, then doubled. What the tests outside the package read log growth
// through.
func (st *Store) LogLens() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	lens := make(map[string]int)
	for _, rec := range st.series {
		if rec.h != nil {
			lens[rec.id] = len(rec.log)
		}
	}
	return lens
}

// AtRest returns, per series id, whether the series still holds the one
// value it attached with and no column.
func (st *Store) AtRest() map[string]bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	atRest := make(map[string]bool, len(st.series))
	for _, rec := range st.series {
		atRest[rec.id] = rec.rest != nil
	}
	return atRest
}

// CoarseBlocksHeld returns how many coarse blocks the ring of the series'
// cohort has room for now: one tile at attach, grown by an eighth in whole
// tile rows as blocks open on it full, up to the configured retention.
func (st *Store) CoarseBlocksHeld(id string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range st.series {
		if rec.id == id {
			return rec.co.coarse.size
		}
	}
	return 0
}

// WakeBlocks returns the bytes of each block a woken series' first move
// allocated for it: its share of its group's open chunk, its ring of
// sealed chunks, its chunk marks and its share of the group's envelopes,
// 24 B each.
// Nil for a series at rest.
func (st *Store) WakeBlocks(id string) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range st.series {
		if g := rec.grp; rec.id == id && g != nil {
			r, k := &g.sealed[rec.col], len(g.srcs)
			return []int{len(g.vals) / k * 8, len(r.words) * 8, len(r.ends) * 4, len(g.env) / k * 24}
		}
	}
	return nil
}

// FineBytes returns, per woken series id, the bytes its fine values take:
// its share of its group's open chunk, its ring of sealed chunks and its
// chunk marks. A series at rest holds no fine bytes of its own.
func (st *Store) FineBytes() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	fine := make(map[string]int)
	for _, rec := range st.series {
		if g := rec.grp; g != nil {
			r := &g.sealed[rec.col]
			fine[rec.id] = len(g.vals)/len(g.srcs)*8 + len(r.words)*8 + len(r.ends)*4
		}
	}
	return fine
}
