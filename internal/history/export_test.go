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

// WakeBlocks returns the bytes of each block a woken series' first move
// allocated for it: its share of its group's open fine chunk, its fine ring
// of sealed chunks and that ring's chunk marks, its share of the open
// coarse chunk (a tile of 24-byte envelopes), and its coarse ring and
// marks. Nil for a series at rest.
func (st *Store) WakeBlocks(id string) []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range st.series {
		if g := rec.grp; rec.id == id && g != nil {
			f, c := &g.fine[rec.col], &g.coarse[rec.col]
			return []int{len(g.vals) / len(g.srcs) * 8, len(f.words) * 8, len(f.ends) * 4,
				tile * 24, len(c.words) * 8, len(c.ends) * 4}
		}
	}
	return nil
}

// FineBytes returns, per woken series id, the bytes its fine values take:
// its share of its group's open chunk, its ring of sealed chunks and their
// chunk marks. A series at rest holds no fine bytes of its own.
func (st *Store) FineBytes() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	fine := make(map[string]int)
	for _, rec := range st.series {
		if g := rec.grp; g != nil {
			r := &g.fine[rec.col]
			fine[rec.id] = len(g.vals)/len(g.srcs)*8 + len(r.words)*8 + len(r.ends)*4
		}
	}
	return fine
}

// CoarseBytes returns, per woken series id, the bytes its envelopes take:
// its share of its group's open coarse chunk, its ring of sealed chunks and
// their chunk marks. A series at rest holds no coarse bytes of its own.
func (st *Store) CoarseBytes() map[string]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	coarse := make(map[string]int)
	for _, rec := range st.series {
		if g := rec.grp; g != nil {
			r := &g.coarse[rec.col]
			coarse[rec.id] = tile*24 + len(r.words)*8 + len(r.ends)*4
		}
	}
	return coarse
}
