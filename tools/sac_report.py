#!/usr/bin/env python3
"""Render and diff sac telemetry output (stdlib only).

The observability pipeline's exporter end (DESIGN.md §13): the bench
binaries write one ``sac-run-manifest-v1`` JSON document per sweep
cell under ``--emit-json DIR``, plus — under ``--interval N`` /
``--heatmap`` — a sibling ``<stem>.intervals.jsonl`` time series
(``sac-intervals-v1``) and an embedded per-set heat profile
(``sac-set-profile-v1``). This tool turns those directories into a
self-contained HTML report with time-series and heatmap charts, or
diffs two run directories for metric regressions.

Subcommands:
  check  DIR...                  validate schemas and interval sums
  render DIR... [-o FILE]        validate, then write an HTML report
                 [--perf FILE]   fold in perf trajectories: either a
                                 sac-perf-summary-v1 summary
                                 (tools/perf_compare.py --emit-json)
                                 or a BENCH_simspeed.json baseline
  diff   A B [--threshold F]     flag cells whose higher-is-worse
                                 metrics (amat, miss_ratio,
                                 words_per_access) regressed by more
                                 than F relative (default 0.02);
                                 exits 1 when any did
  same   A B [--subset]          require the same manifest file
                                 names in A and B (--subset: every
                                 name in A also in B), each document
                                 identical modulo its wall-clock
                                 "timing" object, and identical
                                 interval series; exits 1 otherwise

``check`` and ``render`` exit nonzero on any schema violation, on
interval deltas that do not sum to the manifest counters (they must
match exactly — the recorder telescopes uint64 counters), and on
malformed heat profiles. tools/check.sh's ``telemetry`` leg drives a
smoke sweep through all three subcommands.
"""

import argparse
import glob
import html
import json
import os
import sys

MANIFEST_SCHEMA = "sac-run-manifest-v1"
INTERVALS_SCHEMA = "sac-intervals-v1"
PROFILE_SCHEMA = "sac-set-profile-v1"
PERF_SUMMARY_SCHEMA = "sac-perf-summary-v1"

# Manifest metrics where a larger value is a worse result; diff mode
# flags relative increases in these.
HIGHER_IS_WORSE = ("amat", "miss_ratio", "words_per_access")


def fail(msg):
    sys.exit(f"error: {msg}")


def flatten(d, prefix=""):
    """Flatten the nested counters object to dotted-path leaves."""
    out = {}
    for key, value in d.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(flatten(value, path))
        else:
            out[path] = value
    return out


# ---------------------------------------------------------------------------
# Loading + validation


def load_manifest(path, errors):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable manifest: {e}")
        return None
    if doc.get("schema") != MANIFEST_SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, "
                      f"expected {MANIFEST_SCHEMA!r}")
        return None
    for key in ("workload", "config_name", "cache_key", "counters",
                "metrics"):
        if key not in doc:
            errors.append(f"{path}: missing required key {key!r}")
            return None
    doc["_path"] = path
    if "profile" in doc:
        validate_profile(path, doc["profile"], errors)
    return doc


def validate_profile(path, profile, errors):
    if profile.get("schema") != PROFILE_SCHEMA:
        errors.append(f"{path}: profile schema is "
                      f"{profile.get('schema')!r}, expected "
                      f"{PROFILE_SCHEMA!r}")
        return
    sets = profile.get("sets")
    if not isinstance(sets, int) or sets < 1:
        errors.append(f"{path}: profile.sets must be a positive int")
        return
    for series in ("accesses", "misses", "evictions", "conflicts"):
        values = profile.get(series)
        if not isinstance(values, list) or len(values) != sets:
            errors.append(f"{path}: profile.{series} must list "
                          f"{sets} per-set counts")
            return
        declared = profile.get("total", {}).get(series)
        if declared is not None and declared != sum(values):
            errors.append(f"{path}: profile total.{series} = "
                          f"{declared} != sum {sum(values)}")


def intervals_path_of(manifest_path):
    stem, ext = os.path.splitext(manifest_path)
    return stem + ".intervals.jsonl"


def load_intervals(path, errors):
    """Parse one intervals JSONL file: (header, [snapshot lines])."""
    try:
        with open(path) as f:
            lines = [json.loads(line) for line in f if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable interval series: {e}")
        return None
    if not lines:
        errors.append(f"{path}: empty interval series")
        return None
    header, snaps = lines[0], lines[1:]
    if header.get("schema") != INTERVALS_SCHEMA:
        errors.append(f"{path}: header schema is "
                      f"{header.get('schema')!r}, expected "
                      f"{INTERVALS_SCHEMA!r}")
        return None
    for i, snap in enumerate(snaps):
        if "delta" not in snap or "cum" not in snap:
            errors.append(f"{path}: line {i + 2} lacks delta/cum")
            return None
    return header, snaps


def check_interval_sums(manifest, header, snaps, errors):
    """Interval deltas must sum exactly to the manifest counters."""
    path = intervals_path_of(manifest["_path"])
    counters = flatten(manifest["counters"])
    sums = {}
    for snap in snaps:
        for name, delta in snap["delta"].items():
            sums[name] = sums.get(name, 0) + delta
    for name, total in sums.items():
        if name == "time.access_cycles":
            # The one double-valued series: compare against the
            # manifest's derived metric with float tolerance.
            expect = manifest["metrics"].get("total_access_cycles")
            if expect is not None and abs(total - expect) > max(
                    1e-6 * max(abs(expect), 1.0), 1e-9):
                errors.append(f"{path}: {name} sums to {total}, "
                              f"manifest says {expect}")
            continue
        if name not in counters:
            errors.append(f"{path}: delta series {name!r} has no "
                          f"manifest counter")
            continue
        if total != counters[name]:
            errors.append(f"{path}: {name} deltas sum to {total}, "
                          f"manifest counter is {counters[name]}")
    if snaps:
        cum = snaps[-1]["cum"]
        want = counters.get("access.total")
        if want is not None and cum.get("accesses") != want:
            errors.append(f"{path}: final cum.accesses = "
                          f"{cum.get('accesses')} != access.total "
                          f"{want}")


def load_run_dir(directory, errors):
    """All manifests in @p directory with their interval series."""
    if not os.path.isdir(directory):
        fail(f"{directory} is not a directory")
    cells = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        manifest = load_manifest(path, errors)
        if manifest is None:
            continue
        ipath = intervals_path_of(path)
        intervals = None
        if os.path.exists(ipath):
            intervals = load_intervals(ipath, errors)
            if intervals is not None:
                check_interval_sums(manifest, *intervals, errors)
        cells.append((manifest, intervals))
    if not cells:
        errors.append(f"{directory}: no run manifests (*.json)")
    return cells


def load_perf_file(path, errors):
    """A --perf file: perf summary or google-benchmark baseline."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        errors.append(f"{path}: unreadable perf file: {e}")
        return None
    if doc.get("schema") == PERF_SUMMARY_SCHEMA:
        return ("summary", path, doc)
    if "items_per_second" in doc:
        return ("baseline", path, doc)
    errors.append(f"{path}: neither a {PERF_SUMMARY_SCHEMA} summary "
                  f"nor a BENCH_simspeed.json baseline")
    return None


# ---------------------------------------------------------------------------
# HTML rendering (self-contained: inline CSS + SVG, no external refs)

CSS = """
body { font-family: sans-serif; margin: 2em; color: #222; }
h1, h2, h3 { color: #123; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em;
         text-align: right; font-size: 90%; }
th { background: #eef; }
td.name, th.name { text-align: left; }
.cell { margin-bottom: 2.2em; border-bottom: 1px solid #ddd; }
.ok { color: #070; } .bad { color: #b00; font-weight: bold; }
svg { background: #fafaff; border: 1px solid #ccd; }
.small { font-size: 80%; color: #666; }
"""


def svg_line_chart(points, width=640, height=160, label=""):
    """One polyline over (x, y) @p points, axes implied."""
    if len(points) < 2:
        return "<p class=small>(fewer than two intervals)</p>"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1
    pad = 6
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    sy = lambda y: height - pad - (y - y0) / (y1 - y0) * (height -
                                                          2 * pad)
    pts = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
    return (f"<svg width={width} height={height} "
            f"viewBox='0 0 {width} {height}'>"
            f"<polyline fill='none' stroke='#36c' stroke-width='1.5' "
            f"points='{pts}'/>"
            f"<text x='{pad + 2}' y='14' font-size='11'>"
            f"{html.escape(label)} (min {y0:.4g}, max {y1:.4g})"
            f"</text></svg>")


def svg_heatmap(values, width=640, label=""):
    """Per-set counts as a single-row heat strip (log-ish shading)."""
    n = len(values)
    if n == 0:
        return ""
    peak = max(values) or 1
    cell_w = max(1.0, width / n)
    height = 48
    rects = []
    for i, v in enumerate(values):
        # Brighter red = hotter set.
        heat = (v / peak) ** 0.5
        r = 255
        gb = int(235 * (1.0 - heat))
        rects.append(
            f"<rect x='{i * cell_w:.2f}' y='14' width='{cell_w:.2f}' "
            f"height='{height - 16}' fill='rgb({r},{gb},{gb})'>"
            f"<title>set {i}: {v}</title></rect>")
    return (f"<svg width={int(cell_w * n)} height={height} "
            f"viewBox='0 0 {int(cell_w * n)} {height}'>"
            f"<text x='2' y='11' font-size='11'>"
            f"{html.escape(label)} ({n} sets, peak {peak})</text>"
            f"{''.join(rects)}</svg>")


def render_metrics_table(metrics):
    rows = []
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, (int, float)):
            rows.append(f"<tr><td class=name>{html.escape(key)}</td>"
                        f"<td>{value:.6g}</td></tr>")
    return ("<table><tr><th class=name>metric</th><th>value</th></tr>"
            + "".join(rows) + "</table>")


def render_cell(manifest, intervals):
    name = (f"{manifest['workload']} · {manifest['config_name']}")
    parts = [f"<div class=cell><h2>{html.escape(name)}</h2>",
             f"<p class=small>engine: "
             f"{html.escape(str(manifest.get('engine', '?')))} · "
             f"cache key: "
             f"{html.escape(manifest['cache_key'])}</p>",
             render_metrics_table(manifest["metrics"])]
    if intervals is not None:
        header, snaps = intervals
        parts.append(f"<h3>interval series "
                     f"(every {header.get('interval_records')} "
                     f"records, {len(snaps)} intervals)</h3>")
        parts.append(svg_line_chart(
            [(s["end"], s["miss_ratio"]) for s in snaps],
            label="interval miss ratio"))
        parts.append(svg_line_chart(
            [(s["end"], s["amat"]) for s in snaps],
            label="interval AMAT (cycles)"))
        parts.append(svg_line_chart(
            [(s["end"], s["wb_occupancy"]) for s in snaps],
            label="write-buffer occupancy at boundary"))
    profile = manifest.get("profile")
    if profile:
        parts.append(f"<h3>per-set heat profile "
                     f"(hottest set {profile.get('hottest_set')})"
                     f"</h3>")
        for series in ("accesses", "misses", "conflicts"):
            parts.append(svg_heatmap(profile[series], label=series))
    parts.append("</div>")
    return "\n".join(parts)


def render_perf(kind, path, doc):
    parts = [f"<div class=cell><h2>perf: {html.escape(path)}</h2>"]
    if kind == "summary":
        verdict = ("<span class=ok>PASS</span>" if doc.get("pass")
                   else "<span class=bad>FAIL</span>")
        parts.append(f"<p>{verdict} (tolerance "
                     f"{doc.get('tolerance')}, ratio slack "
                     f"{doc.get('ratio_slack')})</p>")
        rows = "".join(
            f"<tr><td class=name>{html.escape(b['name'])}</td>"
            f"<td>{b['items_per_second'] / 1e6:.2f}</td>"
            f"<td>{b['baseline_items_per_second'] / 1e6:.2f}</td>"
            f"<td>{100 * b['drift']:+.1f}%</td>"
            f"<td>{'ok' if b['ok'] else 'REGRESSED'}</td></tr>"
            for b in doc.get("benchmarks", []))
        parts.append("<table><tr><th class=name>benchmark</th>"
                     "<th>M items/s</th><th>baseline</th>"
                     "<th>drift</th><th>verdict</th></tr>"
                     + rows + "</table>")
        rows = "".join(
            f"<tr><td class=name>{html.escape(r['fast'])} / "
            f"{html.escape(r['slow'])}</td>"
            f"<td>{r.get('ratio', 0):.2f}x</td>"
            f"<td>{r.get('floor', 0):.2f}x</td>"
            f"<td>{html.escape(str(r.get('skipped', '') or ('ok' if r.get('ok') else 'REGRESSED')))}</td></tr>"
            for r in doc.get("ratios", []))
        parts.append("<table><tr><th class=name>ratio</th>"
                     "<th>value</th><th>floor</th><th>verdict</th>"
                     "</tr>" + rows + "</table>")
    else:
        rows = "".join(
            f"<tr><td class=name>{html.escape(name)}</td>"
            f"<td>{ips / 1e6:.2f}</td></tr>"
            for name, ips in sorted(
                doc["items_per_second"].items()))
        parts.append("<table><tr><th class=name>benchmark</th>"
                     "<th>M items/s (baseline)</th></tr>"
                     + rows + "</table>")
    parts.append("</div>")
    return "\n".join(parts)


def render_report(dir_cells, perf_docs, title):
    body = []
    for directory, cells in dir_cells:
        body.append(f"<h1>{html.escape(title)} — "
                    f"{html.escape(directory)}</h1>")
        for manifest, intervals in cells:
            body.append(render_cell(manifest, intervals))
    for kind, path, doc in perf_docs:
        body.append(render_perf(kind, path, doc))
    return (f"<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{CSS}</style></head><body>"
            + "\n".join(body) + "</body></html>\n")


# ---------------------------------------------------------------------------
# Subcommands


def report_errors(errors):
    if errors:
        print("validation FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        sys.exit(1)


def cmd_check(args):
    errors = []
    total = 0
    for directory in args.dirs:
        cells = load_run_dir(directory, errors)
        total += len(cells)
        with_intervals = sum(1 for _, i in cells if i is not None)
        with_profile = sum(1 for m, _ in cells if m.get("profile"))
        print(f"{directory}: {len(cells)} manifests, "
              f"{with_intervals} interval series, "
              f"{with_profile} heat profiles")
    report_errors(errors)
    print(f"check passed ({total} manifests)")


def cmd_render(args):
    errors = []
    dir_cells = [(d, load_run_dir(d, errors)) for d in args.dirs]
    perf_docs = [doc for doc in (load_perf_file(p, errors)
                                 for p in args.perf or [])
                 if doc is not None]
    report_errors(errors)
    html_text = render_report(dir_cells, perf_docs, args.title)
    try:
        with open(args.output, "w") as f:
            f.write(html_text)
    except OSError as e:
        fail(f"cannot write {args.output}: {e}")
    cells = sum(len(c) for _, c in dir_cells)
    print(f"wrote {args.output} ({cells} cells, "
          f"{len(perf_docs)} perf sections)")


def cmd_diff(args):
    errors = []
    a_cells = load_run_dir(args.a, errors)
    b_cells = load_run_dir(args.b, errors)
    report_errors(errors)

    def keyed(cells):
        return {(m["workload"], m["config_name"]): m
                for m, _ in cells}

    a_by_key, b_by_key = keyed(a_cells), keyed(b_cells)
    common = sorted(set(a_by_key) & set(b_by_key))
    if not common:
        fail("no (workload, config) cells in common")
    for key in sorted(set(a_by_key) ^ set(b_by_key)):
        side = "only in A" if key in a_by_key else "only in B"
        print(f"  warning: {key[0]} · {key[1]}: {side}")

    regressions = []
    for key in common:
        ma, mb = a_by_key[key], b_by_key[key]
        for metric in HIGHER_IS_WORSE:
            va = ma["metrics"].get(metric)
            vb = mb["metrics"].get(metric)
            if va is None or vb is None:
                continue
            if abs(va) > 1e-9:
                rel = (vb - va) / abs(va)
                shown = f"{100 * rel:+.2f}%"
            else:
                # Zero (or vanishing) baseline: a relative delta would
                # divide by ~0 and turn any drift into an astronomical
                # percentage (or inf). Compare the absolute delta
                # against the same threshold instead — for ratios and
                # cycle counts near 0, "moved by more than the
                # threshold" is the meaningful regression test.
                rel = vb - va
                shown = f"Δ{rel:+.6g} abs"
            verdict = "ok" if rel <= args.threshold else "REGRESSED"
            if rel > args.threshold or args.verbose:
                print(f"  {verdict:9s} {key[0]} · {key[1]} · "
                      f"{metric}: {va:.6g} -> {vb:.6g} "
                      f"({shown})")
            if rel > args.threshold:
                regressions.append((key, metric, va, vb, rel))
    if regressions:
        print(f"\ndiff FAILED: {len(regressions)} metric "
              f"regression(s) above {100 * args.threshold:.1f}%",
              file=sys.stderr)
        sys.exit(1)
    print(f"diff passed ({len(common)} common cells)")


def canonical_manifest(path):
    """A manifest document without its wall-clock "timing" object."""
    with open(path) as f:
        doc = json.load(f)
    doc.pop("timing", None)
    return json.dumps(doc, sort_keys=True)


def cmd_same(args):
    def names(directory, pattern):
        return {os.path.basename(p)
                for p in glob.glob(os.path.join(directory, pattern))}

    a_names = names(args.a, "*.json")
    if not a_names:
        fail(f"{args.a}: no manifests")
    problems = []
    for pattern in ("*.json", "*.intervals.jsonl"):
        a, b = names(args.a, pattern), names(args.b, pattern)
        for name in sorted(a - b):
            problems.append(f"{name}: missing from {args.b}")
        if not args.subset:
            for name in sorted(b - a):
                problems.append(f"{name}: missing from {args.a}")
        for name in sorted(a & b):
            pa, pb = os.path.join(args.a, name), os.path.join(args.b, name)
            if pattern == "*.json":
                same = canonical_manifest(pa) == canonical_manifest(pb)
            else:
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    same = fa.read() == fb.read()
            if not same:
                problems.append(f"{name}: differs")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    if problems:
        fail(f"{len(problems)} difference(s) between {args.a} and "
             f"{args.b}")
    print(f"  {len(a_names)} manifests identical modulo timing")


def main():
    p = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("check", help="validate run directories")
    s.add_argument("dirs", nargs="+", metavar="DIR")
    s.set_defaults(fn=cmd_check)

    s = sub.add_parser("render", help="write an HTML report")
    s.add_argument("dirs", nargs="+", metavar="DIR")
    s.add_argument("-o", "--output", default="sac-report.html")
    s.add_argument("--perf", action="append", metavar="FILE",
                   help="fold in a perf summary "
                        "(sac-perf-summary-v1) or BENCH_simspeed.json")
    s.add_argument("--title", default="sac run report")
    s.set_defaults(fn=cmd_render)

    s = sub.add_parser("diff", help="flag metric regressions A -> B")
    s.add_argument("a", metavar="A")
    s.add_argument("b", metavar="B")
    s.add_argument("--threshold", type=float, default=0.02,
                   help="relative regression tolerance "
                        "(default 0.02)")
    s.add_argument("--verbose", action="store_true",
                   help="print every compared metric, not only "
                        "regressions")
    s.set_defaults(fn=cmd_diff)

    s = sub.add_parser("same", help="require identical manifests "
                                    "modulo timing")
    s.add_argument("a", metavar="A")
    s.add_argument("b", metavar="B")
    s.add_argument("--subset", action="store_true",
                   help="B may hold manifests A does not")
    s.set_defaults(fn=cmd_same)

    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
