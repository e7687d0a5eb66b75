# The verdict of scripts/bench-pairs.sh: per (workload, seed, metric) the
# medians of the parent's and the change's runs, the parent's spread
# (Q3 - Q1), the pairs the change won, and a verdict. Reads two
# tab-separated files:
#   BETTER  metric, better ("higher" or "lower"), bound ("" for none)
#   ROWS    workload, seed, metric, parent value, change value; one line
#           per pair
# and exits 1 when an end-to-end metric is WORSE. The rule is in
# bench-pairs.sh's header. To judge recorded pairs again:
#   jq -r '(.end_to_end + .per_layer)[] | [.name, .better, (.bound // "")] | @tsv' BENCHMARK.json >better.tsv
#   awk -F '\t' -f scripts/pairs-verdict.awk better.tsv rows.tsv
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# quantile of sorted a[1..n], linear between the two nearest ranks
function quantile(a, n, q,    h, lo) {
	h = 1 + (n - 1) * q
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
FILENAME == ARGV[1] { better[$1] = $2; bound[$1] = $3; next }
{
	key = $1 "\t" $2 "\t" $3
	if (!(key in n)) order[++keys] = key
	i = ++n[key]
	pv[key, i] = $4 + 0
	cv[key, i] = $5 + 0
	if ((better[$3] == "higher" && cv[key, i] > pv[key, i]) || (better[$3] != "higher" && cv[key, i] < pv[key, i])) wins[key]++
}
END {
	for (k = 1; k <= keys; k++) {
		key = order[k]
		split(key, f, "\t")
		m = n[key]
		sign = better[f[3]] == "higher" ? -1 : 1 # sign * (change - parent) > 0 is worse
		for (i = 1; i <= m; i++) { a[i] = pv[key, i]; b[i] = cv[key, i]; r[i] = (a[i] != 0 ? b[i] / a[i] : 0) }
		sort(a, m); sort(b, m); sort(r, m)
		pm = quantile(a, m, 0.5); cm = quantile(b, m, 0.5)
		iqr = quantile(a, m, 0.75) - quantile(a, m, 0.25)
		worse = sign * (cm - pm)
		# every run of the change better than every run of the parent
		apart = sign > 0 ? b[m] < a[1] : b[1] > a[m]
		# fewer than five runs a side have no spread to judge by
		if (m < 5) verdict = "unresolved (screen)"
		else if (wins[key] * 10 >= m * 9 && -worse > iqr) verdict = "better"
		else if (bound[f[3]] == "") verdict = "-"
		else if (iqr > bound[f[3]] * pm && !apart) verdict = "unresolved"
		else if (worse > bound[f[3]] * pm) { verdict = "WORSE"; failed++ }
		else verdict = "within bound"
		# fewer than ten pairs screen for a move, they do not judge one
		if (m < 10 && (verdict == "better" || verdict == "WORSE")) verdict = verdict " (screen: re-run at PAIRS=10)"
		printf "   %-12s seed %-3s %-22s parent %-12.6g change %-12.6g ratio %.3f  iqr %-10.4g wins %d/%d  %s\n",
			f[1], f[2], f[3], pm, cm, quantile(r, m, 0.5), iqr, wins[key], m, verdict
	}
	if (failed) {
		printf "bench-pairs: %d end-to-end metrics are WORSE than the parent by more than their bound\n", failed
		exit 1
	}
}
