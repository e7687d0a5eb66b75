package history

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"mzqos/internal/telemetry"
)

// indexReport is the /query discovery payload served when no series is
// selected.
type indexReport struct {
	Series    []string `json:"series"`
	LastRound int      `json:"last_round"`
	Samples   int64    `json:"samples"`
	Rounds    int      `json:"retention_rounds"`
	Block     int      `json:"coarse_block_rounds"`
	Blocks    int      `json:"coarse_blocks"`
}

// QueryHandler serves the store over HTTP:
//
//	/query?series=NAME[&since_round=N][&step=N]
//	      [&agg=last|rate|min|max|p50|p99|p999][&format=ndjson]
//
// series selects by metric name, or by id / id prefix when it contains
// '{' (e.g. mzqos_slo_measured{target=late}). Unknown series and
// malformed parameters answer 400. Without a series parameter the
// handler lists the known series ids. format=ndjson streams one
// {"id","round","value"} object per line for jq/grep pipelines.
func (st *Store) QueryHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if st == nil {
			http.Error(w, "history disabled", http.StatusNotFound)
			return
		}
		qs := r.URL.Query()
		sel := qs.Get("series")
		if sel == "" {
			rounds, block, blocks := st.Retention()
			telemetry.WriteJSON(w, indexReport{
				Series:    st.SeriesIDs(),
				LastRound: st.LastRound(),
				Samples:   st.Samples(),
				Rounds:    rounds,
				Block:     block,
				Blocks:    blocks,
			})
			return
		}
		q := Query{Series: sel, Agg: qs.Get("agg")}
		if v := qs.Get("since_round"); v != "" {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				http.Error(w, "bad since_round: "+err.Error(), http.StatusBadRequest)
				return
			}
			q.SinceRound = n
		}
		if v := qs.Get("step"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				http.Error(w, "bad step: "+v, http.StatusBadRequest)
				return
			}
			q.Step = n
		}
		res, err := st.Query(q)
		if err != nil {
			status := http.StatusBadRequest
			if !errors.Is(err, ErrUnknownSeries) && !errors.Is(err, ErrBadQuery) {
				status = http.StatusInternalServerError
			}
			http.Error(w, err.Error(), status)
			return
		}
		if qs.Get("format") == "ndjson" {
			type row struct {
				ID    string  `json:"id"`
				Round int64   `json:"round"`
				Value float64 `json:"value"`
			}
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, sr := range res.Series {
				for _, p := range sr.Points {
					if err := enc.Encode(row{ID: sr.ID, Round: p.Round, Value: p.Value}); err != nil {
						http.Error(w, err.Error(), http.StatusInternalServerError)
						return
					}
				}
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = w.Write(body.Bytes()) // the client hanging up is its own report
			return
		}
		telemetry.WriteJSON(w, res)
	}
}
