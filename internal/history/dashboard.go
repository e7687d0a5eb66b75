package history

import (
	"fmt"
	"html"
	"net/http"
	"strconv"
	"strings"

	"mzqos/internal/telemetry"
)

// Series names the dashboard assembles its panels from. Panels whose
// series are absent from the store are simply omitted, so the same
// renderer serves single-server and cluster processes.
const (
	seriesRoundTime   = "mzqos_server_round_time_seconds"
	seriesBoundLate   = "mzqos_server_bound_late"
	seriesMeasured    = "mzqos_slo_measured"
	seriesBudget      = "mzqos_slo_budget"
	seriesAlertState  = "mzqos_slo_alert_state"
	seriesActive      = "mzqos_server_streams_active"
	seriesNMax        = "mzqos_server_nmax"
	seriesAdmitted    = "mzqos_server_streams_admitted_total"
	seriesRejected    = "mzqos_server_streams_rejected_total"
	seriesClusterRate = "mzqos_cluster_slo_measured"
	seriesTickets     = "mzqos_cluster_tickets"
	seriesCapacity    = "mzqos_cluster_capacity"
	seriesDegraded    = "mzqos_cluster_degraded_shards"
	seriesMigOK       = "mzqos_cluster_migrations_succeeded_total"
	seriesMigTry      = "mzqos_cluster_migrations_attempted_total"
	seriesMigFail     = "mzqos_cluster_migrations_failed_total"
	seriesFailover    = "mzqos_cluster_failover_streams_total"
)

// The /dashboard page's defaults, which ?window=N and ?refresh=N
// override per request: the trailing estimation window in rounds for
// measured tails and rate panels, and the meta-refresh cadence in seconds.
const (
	dashboardWindow  = 64
	dashboardRefresh = 5
)

// DashboardConfig parameterizes the /dashboard page.
type DashboardConfig struct {
	// Title heads the page (empty = "mzqos").
	Title string
	// RoundLength is the deadline t in seconds — the threshold of the
	// measured-tail panels (0 = 1, the repo's canonical round length).
	RoundLength float64
}

// TailTrajectory returns the windowed measured tail of a histogram
// series: one point per step window, each the fraction of that window's
// observations strictly above threshold — the measured P̂[T_N > t]
// trajectory beside the analytic b_late the dashboard plots.
func (st *Store) TailTrajectory(id string, threshold float64, sinceRound int64, step int) []Point {
	if st == nil {
		return nil
	}
	above := func(v telemetry.HistogramValues) float64 { return v.TailAbove(threshold) }
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range st.series {
		if rec.id == id && rec.h != nil {
			pts, _ := rec.evaluate(sinceRound, int64(max(step, 1)), "", above, st.block)
			return pts
		}
	}
	return nil
}

// line is one polyline of a panel.
type line struct {
	label string
	color string
	dash  bool
	pts   []Point
}

// band is one shaded x-interval of a panel (SLO alert states).
type band struct {
	from, to int64
	color    string
}

// panel geometry (one fixed size keeps the SVG math simple).
const (
	panelW   = 640
	panelH   = 130
	panelPad = 28
)

var palette = []string{"#0a7", "#d33", "#06c", "#e80", "#85c", "#b06", "#777", "#3aa"}

// fmtVal renders a value compactly for legends and axis labels.
func fmtVal(v float64) string { return strconv.FormatFloat(v, 'g', 3, 64) }

// renderPanel writes one titled sparkline figure: shaded bands under
// colored polylines with a min/max y-axis and a round-range x-axis, all
// inline SVG — no external assets.
func renderPanel(b *strings.Builder, title string, lines []line, bands []band) {
	var xmin, xmax int64 = 1<<62 - 1, -(1 << 62)
	ymin, ymax := 0.0, 0.0
	haveY := false
	n := 0
	for _, l := range lines {
		for _, p := range l.pts {
			if p.Round < xmin {
				xmin = p.Round
			}
			if p.Round > xmax {
				xmax = p.Round
			}
			if !haveY {
				ymin, ymax, haveY = p.Value, p.Value, true
			} else {
				if p.Value < ymin {
					ymin = p.Value
				}
				if p.Value > ymax {
					ymax = p.Value
				}
			}
			n++
		}
	}
	if n == 0 {
		return
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		pad := ymax * 0.1
		if pad <= 0 {
			pad = 1
		}
		ymin, ymax = ymin-pad, ymax+pad
	}
	// Keep zero in frame for rate-like panels whose values hug it.
	if ymin > 0 && ymin < (ymax-ymin)*0.5 {
		ymin = 0
	}
	sx := func(r int64) float64 {
		return panelPad + float64(r-xmin)/float64(xmax-xmin)*(panelW-2*panelPad)
	}
	sy := func(v float64) float64 {
		return panelH - panelPad - (v-ymin)/(ymax-ymin)*(panelH-2*panelPad)
	}

	fmt.Fprintf(b, "<figure>\n<figcaption>%s</figcaption>\n", html.EscapeString(title))
	fmt.Fprintf(b, `<svg width="%d" height="%d" viewBox="0 0 %d %d" role="img">`+"\n",
		panelW, panelH, panelW, panelH)
	fmt.Fprintf(b, `<rect x="0" y="0" width="%d" height="%d" fill="#fcfcfa" stroke="#ddd"/>`+"\n", panelW, panelH)
	for _, bd := range bands {
		x0, x1 := sx(bd.from), sx(bd.to)
		if x1 < x0+1 {
			x1 = x0 + 1
		}
		fmt.Fprintf(b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" opacity="0.25"/>`+"\n",
			x0, panelPad, x1-x0, panelH-2*panelPad, bd.color)
	}
	// Frame and axis labels.
	fmt.Fprintf(b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#bbb"/>`+"\n",
		panelPad, panelH-panelPad, panelW-panelPad, panelH-panelPad)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#666">%s</text>`+"\n",
		2, panelPad+4, html.EscapeString(fmtVal(ymax)))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#666">%s</text>`+"\n",
		2, panelH-panelPad, html.EscapeString(fmtVal(ymin)))
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#666">r%d</text>`+"\n",
		panelPad, panelH-8, xmin)
	fmt.Fprintf(b, `<text x="%d" y="%d" font-size="10" fill="#666" text-anchor="end">r%d</text>`+"\n",
		panelW-panelPad, panelH-8, xmax)
	for _, l := range lines {
		if len(l.pts) == 0 {
			continue
		}
		var sb strings.Builder
		for i, p := range l.pts {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.1f,%.1f", sx(p.Round), sy(p.Value))
		}
		dash := ""
		if l.dash {
			dash = ` stroke-dasharray="5,3"`
		}
		if len(l.pts) == 1 {
			p := l.pts[0]
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2" fill="%s"/>`+"\n", sx(p.Round), sy(p.Value), l.color)
			continue
		}
		fmt.Fprintf(b, `<polyline fill="none" stroke="%s" stroke-width="1.5"%s points="%s"/>`+"\n",
			l.color, dash, sb.String())
	}
	b.WriteString("</svg>\n<div class=\"legend\">")
	for _, l := range lines {
		latest := ""
		if len(l.pts) > 0 {
			latest = " = " + fmtVal(l.pts[len(l.pts)-1].Value)
		}
		fmt.Fprintf(b, `<span><i style="background:%s"></i>%s%s</span> `,
			l.color, html.EscapeString(l.label), html.EscapeString(latest))
	}
	b.WriteString("</div>\n</figure>\n")
}

// labelValue returns the value of key in a SeriesResult's labels ("" when
// absent).
func (sr *SeriesResult) labelValue(key string) string {
	for _, l := range sr.Labels {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// labelsMatchExcept reports whether a and b carry identical label sets
// once the given key is ignored on both sides.
func labelsMatchExcept(a, b *SeriesResult, key string) bool {
	ai, bi := 0, 0
	for {
		for ai < len(a.Labels) && a.Labels[ai].Key == key {
			ai++
		}
		for bi < len(b.Labels) && b.Labels[bi].Key == key {
			bi++
		}
		if ai == len(a.Labels) || bi == len(b.Labels) {
			return ai == len(a.Labels) && bi == len(b.Labels)
		}
		if a.Labels[ai] != b.Labels[bi] {
			return false
		}
		ai++
		bi++
	}
}

// query is the dashboard's forgiving lookup: a Result for matched
// series, empty on any error (absent series simply omit their panel).
func (st *Store) query(q Query) Result {
	res, err := st.Query(q)
	if err != nil {
		return Result{}
	}
	return res
}

// stateBands turns an alert-state trajectory (0 inactive, 1 pending,
// 2 firing, 3 resolved) into shaded bands.
func stateBands(pts []Point) []band {
	colors := map[int]string{1: "#fb3", 2: "#f55", 3: "#7ad"}
	var out []band
	for i := 0; i < len(pts); {
		state := int(pts[i].Value)
		j := i
		for j+1 < len(pts) && int(pts[j+1].Value) == state {
			j++
		}
		if c, ok := colors[state]; ok {
			to := pts[j].Round
			if j+1 < len(pts) {
				to = pts[j+1].Round
			}
			out = append(out, band{from: pts[i].Round, to: to, color: c})
		}
		i = j + 1
	}
	return out
}

// DashboardHandler serves the self-contained /dashboard page: inline
// SVG sparklines of the measured tail vs analytic bound per disk (the
// paper's §4 bound-tightness figures, live), SLO measured rates against
// their budgets with alert state bands, admission load, and — when the cluster series exist —
// tickets against capacity and migration flow. No scripts, no external
// assets: one HTML document renders everything.
func (st *Store) DashboardHandler(cfg DashboardConfig) http.HandlerFunc {
	title := cfg.Title
	if title == "" {
		title = "mzqos"
	}
	t := cfg.RoundLength
	if t <= 0 {
		t = 1
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// ?refresh=N and ?window=N override the default cadence and
		// tail-window width per request (refresh=0 stops auto-reload).
		window, refresh := dashboardWindow, dashboardRefresh
		q := r.URL.Query()
		if v := q.Get("refresh"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n >= 0 {
				refresh = n
			}
		}
		if v := q.Get("window"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				window = n
			}
		}
		var b strings.Builder
		b.WriteString("<!doctype html>\n<html><head><meta charset=\"utf-8\">\n")
		fmt.Fprintf(&b, "<title>%s dashboard</title>\n", html.EscapeString(title))
		if refresh > 0 {
			fmt.Fprintf(&b, `<meta http-equiv="refresh" content="%d">`+"\n", refresh)
		}
		b.WriteString(`<style>
body{font:14px system-ui,sans-serif;margin:1.5em;color:#222;max-width:700px}
h1{font-size:1.3em} h2{font-size:1.05em;margin:1.2em 0 .3em;border-bottom:1px solid #eee}
figure{margin:.6em 0} figcaption{font-size:.85em;color:#444;margin-bottom:2px}
.legend{font-size:.8em;color:#333}
.legend i{display:inline-block;width:10px;height:10px;margin-right:3px;border-radius:2px}
.legend span{margin-right:1em}
.meta{color:#666;font-size:.85em}
</style></head><body>` + "\n")

		if st == nil || st.Samples() == 0 {
			fmt.Fprintf(&b, "<h1>%s</h1>\n<p class=\"meta\">no history samples yet</p>\n</body></html>\n",
				html.EscapeString(title))
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			_, _ = w.Write([]byte(b.String()))
			return
		}
		lastRound := st.LastRound()
		fmt.Fprintf(&b, "<h1>%s <span class=\"meta\">round %d · window %d rounds · t = %s s</span></h1>\n",
			html.EscapeString(title), lastRound, window, fmtVal(t))

		st.renderTailSection(&b, t, window)
		st.renderSLOSection(&b, window)
		st.renderAdmissionSection(&b, window)
		st.renderClusterSection(&b, window)

		b.WriteString("</body></html>\n")
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(b.String()))
	}
}

// renderTailSection plots, per disk, the measured windowed tail
// P̂[T_N > t] beside the analytic b_late of the same instance — the
// bound-tightness trajectory.
func (st *Store) renderTailSection(b *strings.Builder, t float64, window int) {
	hists := st.query(Query{Series: seriesRoundTime, Agg: AggLast, Step: window})
	if len(hists.Series) == 0 {
		return
	}
	bounds := st.query(Query{Series: seriesBoundLate, Agg: AggMax, Step: window})
	b.WriteString("<h2>Measured tail vs analytic bound (per disk)</h2>\n")
	for i := range hists.Series {
		hs := &hists.Series[i]
		tail := st.TailTrajectory(hs.ID, t, 0, window)
		lines := []line{{label: "measured P[T>t]", color: palette[0], pts: tail}}
		for j := range bounds.Series {
			bs := &bounds.Series[j]
			if labelsMatchExcept(hs, bs, "disk") {
				lines = append(lines, line{label: "analytic b_late", color: palette[1], dash: true, pts: bs.Points})
				break
			}
		}
		title := "disk " + hs.labelValue("disk")
		if shard := hs.labelValue("shard"); shard != "" {
			title = "shard " + shard + " · " + title
		}
		renderPanel(b, title+" — "+hs.ID, lines, nil)
	}
}

// renderSLOSection plots each target's windowed measured rates (fast and
// slow, per shard when labelled, the cluster's pooled rates dashed)
// against the budgets the audit tests them against, under the alert-state
// bands of every shard's state series for the target.
func (st *Store) renderSLOSection(b *strings.Builder, window int) {
	step := max(window/8, 1)
	measured := st.query(Query{Series: seriesMeasured, Agg: AggMax, Step: step})
	if len(measured.Series) == 0 {
		return
	}
	budgets := st.query(Query{Series: seriesBudget, Agg: AggMax, Step: step})
	cluster := st.query(Query{Series: seriesClusterRate, Agg: AggMax, Step: step})
	states := st.query(Query{Series: seriesAlertState, Agg: AggMax, Step: 1})
	b.WriteString("<h2>SLO measured rate vs budget &amp; alert state</h2>\n")
	for _, target := range []string{"late", "glitch"} {
		lines := targetLines(nil, measured, target, "", false)
		lines = targetLines(lines, cluster, target, "cluster ", true)
		lines = targetLines(lines, budgets, target, "", true)
		var bands []band
		for i := range states.Series {
			if sr := &states.Series[i]; sr.labelValue("target") == target {
				bands = append(bands, stateBands(sr.Points)...)
			}
		}
		renderPanel(b, "measured rate vs budget — target "+target+" (bands: amber pending, red firing, blue resolved)", lines, bands)
	}
}

// targetLines appends a line per series of res for target, labelled
// behind prefix by the series' shard, when it has one, and its window, or
// "budget" for a series without one ("shard 1 fast", "cluster slow").
func targetLines(lines []line, res Result, target, prefix string, dash bool) []line {
	for i := range res.Series {
		sr := &res.Series[i]
		if sr.labelValue("target") != target {
			continue
		}
		label := sr.labelValue("window")
		if label == "" {
			label = "budget"
		}
		if shard := sr.labelValue("shard"); shard != "" {
			label = "shard " + shard + " " + label
		}
		lines = append(lines, line{label: prefix + label, color: palette[len(lines)%len(palette)], dash: dash, pts: sr.Points})
	}
	return lines
}

// renderAdmissionSection plots active streams against the admission
// limit and the admitted/rejected flow.
func (st *Store) renderAdmissionSection(b *strings.Builder, window int) {
	active := st.query(Query{Series: seriesActive, Agg: AggLast, Step: max(window/8, 1)})
	if len(active.Series) == 0 {
		return
	}
	nmax := st.query(Query{Series: seriesNMax, Agg: AggLast, Step: max(window/8, 1)})
	b.WriteString("<h2>Admission</h2>\n")
	lines := shardLines(nil, active, "active", false)
	lines = shardLines(lines, nmax, "N_max/disk", true)
	renderPanel(b, "active streams vs admission limit", lines, nil)

	flow := shardLines(nil, st.query(Query{Series: seriesAdmitted, Agg: AggRate, Step: window}), "admitted/round", false)
	flow = shardLines(flow, st.query(Query{Series: seriesRejected, Agg: AggRate, Step: window}), "rejected/round", true)
	if len(flow) > 0 {
		renderPanel(b, "admission flow (windowed rate)", flow, nil)
	}
}

// shardLines appends a line per series of res to lines, labelled label
// behind the series' shard when it has one ("shard 1 active"), in the
// palette's colors from where lines left off.
func shardLines(lines []line, res Result, label string, dash bool) []line {
	for i := range res.Series {
		sr := &res.Series[i]
		l := label
		if shard := sr.labelValue("shard"); shard != "" {
			l = "shard " + shard + " " + label
		}
		lines = append(lines, line{label: l, color: palette[len(lines)%len(palette)], dash: dash, pts: sr.Points})
	}
	return lines
}

// renderClusterSection plots tickets against capacity and the migration
// counters; omitted entirely for single-server stores.
func (st *Store) renderClusterSection(b *strings.Builder, window int) {
	tickets := st.query(Query{Series: seriesTickets, Agg: AggLast, Step: max(window/8, 1)})
	if len(tickets.Series) == 0 {
		return
	}
	capacity := st.query(Query{Series: seriesCapacity, Agg: AggLast, Step: max(window/8, 1)})
	degraded := st.query(Query{Series: seriesDegraded, Agg: AggMax, Step: max(window/8, 1)})
	b.WriteString("<h2>Cluster</h2>\n")
	lines := []line{{label: "tickets", color: palette[0], pts: tickets.Series[0].Points}}
	if len(capacity.Series) > 0 {
		lines = append(lines, line{label: "capacity", color: palette[1], dash: true, pts: capacity.Series[0].Points})
	}
	if len(degraded.Series) > 0 {
		lines = append(lines, line{label: "degraded shards", color: palette[3], pts: degraded.Series[0].Points})
	}
	renderPanel(b, "tickets vs capacity", lines, nil)

	var mig []line
	for i, spec := range []struct{ name, label string }{
		{seriesMigTry, "attempted/round"},
		{seriesMigOK, "succeeded/round"},
		{seriesMigFail, "failed/round"},
		{seriesFailover, "failover streams/round"},
	} {
		res := st.query(Query{Series: spec.name, Agg: AggRate, Step: window})
		if len(res.Series) > 0 {
			mig = append(mig, line{label: spec.label, color: palette[i%len(palette)], pts: res.Series[0].Points})
		}
	}
	if len(mig) > 0 {
		renderPanel(b, "migration flow (windowed rate)", mig, nil)
	}
}
