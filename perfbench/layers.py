"""Per-layer metrics from a traced run's spans.

Times and counts are per traced pass (totals divided by the number of traced
passes), so counts repeat exactly for a given seed. Set-up counters come from
the set-up phase alone. Times are in reference seconds: every span is scaled
by the speed factor of the workload call it belongs to (see worker.py).
"""
import numpy as np

from tracer import TRACED

# the brute Kraus oracles and the merit engine, for the share metrics
BRUTE = ("switch.switch_two", "switch.switch_n.n2", "switch.switch_n.n3", "switch.switch_n.n4")
MERIT = ("analysis.figure_of_merit", "analysis.evaluate_fidelity")

_EMPTY = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "units": 0, "cold_s": 0.0}


def _in_reference_seconds(spans, call_factors):
    """Scale span times by the factor of their root span, one root per call."""
    root = list(range(len(spans["parent"])))
    for i, p in enumerate(spans["parent"].tolist()):
        if p >= 0:  # parents precede children
            root[i] = root[p]
    roots = np.nonzero(spans["parent"] < 0)[0]
    by_root = np.zeros(len(root))
    by_root[roots] = call_factors
    scale = by_root[root]
    return dict(spans, duration=spans["duration"] * scale, self=spans["self"] * scale)


def _stats(tracer, phases):
    """{name: {"calls", "total_s", "self_s", "units", "cold_s"}} over the phases."""
    out = {name: dict(_EMPTY) for name in tracer.names}
    for spans in phases:
        for nid, name in enumerate(tracer.names):
            mask = spans["name"] == nid
            entry = out[name]
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(spans["duration"][mask].sum())
            entry["self_s"] += float(spans["self"][mask].sum())
            entry["units"] += int(spans["units"][mask].sum())
            entry["cold_s"] += float(spans["duration"][mask & (spans["units"] > 0)].sum())
    return out


def _outermost(tracer, phases, names):
    """Seconds covered by spans of ``names`` that have no ancestor among them."""
    ids = [tracer.names.index(n) for n in names if n in tracer.names]
    total = 0.0
    for spans in phases:
        member = np.isin(spans["name"], ids)
        covered = member.tolist()  # the span is, or lies inside, a member span
        nested = [False] * len(covered)
        for i, p in enumerate(spans["parent"].tolist()):
            if p >= 0 and covered[p]:  # parents precede children
                covered[i] = nested[i] = True
        total += float(spans["duration"][member & ~np.array(nested, dtype=bool)].sum())
    return total


def summarize(tracer, pass_factors, setup_factor, overhead_s):
    """{metric: {"value", "unit"}} for the traced run.

    ``pass_factors`` holds each traced pass's per-call speed factors, in order;
    ``setup_factor`` scales the set-up phase.
    """
    passes = [_in_reference_seconds(tracer.arrays(first, last), factors)
              for (first, last), factors in zip(
                  [p[1:] for p in tracer.phases if p[0] == "pass"], pass_factors)]
    setup = [tracer.arrays(first, last) for label, first, last in tracer.phases
             if label == "setup"]
    n = max(len(passes), 1)
    stats = _stats(tracer, passes)

    def get(name):
        return stats.get(name, _EMPTY)

    wall = sum(float(s["duration"][s["parent"] < 0].sum()) for s in passes) / n

    metrics = {}
    for mod, fname in TRACED:
        name = f"{mod}.{fname}"
        if fname == "switch_n":
            for k in (2, 3, 4):
                sub = get(f"{name}.n{k}")
                metrics[f"{name}.n{k}.calls"] = (sub["calls"] / n, "count")
                metrics[f"{name}.n{k}.ms_per_call"] = (_per_call_ms(sub), "ms")
            continue
        entry = get(name)
        metrics[f"{name}.calls"] = (entry["calls"] / n, "count")
        metrics[f"{name}.total_s"] = (entry["total_s"] / n, "s")
        metrics[f"{name}.self_s"] = (entry["self_s"] / n, "s")
    metrics["switch.switch_two.ms_per_call"] = (_per_call_ms(get("switch.switch_two")), "ms")

    merits = get("analysis.figure_of_merit")["calls"]
    points = get("analysis.evaluate_fidelity")["units"]
    metrics["analysis.evaluate_fidelity.points"] = (points / n, "count")
    metrics["analysis.evaluate_fidelity.points_per_merit"] = (
        points / merits if merits else 0.0, "count")
    # fidelity_polynomials calls made by figure_of_merit: above 1 per merit
    # means the complement-outcome fallback ran
    fom_id = tracer.names.index("analysis.figure_of_merit")
    poly_id = tracer.names.index("analysis.fidelity_polynomials")
    polys = 0
    for spans in passes:
        parents = spans["parent"][spans["name"] == poly_id]
        polys += int((spans["name"][parents[parents >= 0]] == fom_id).sum())
    metrics["analysis.figure_of_merit.polys_per_call"] = (
        polys / merits if merits else 0.0, "ratio")

    cold = _stats(tracer, setup)["switch.branch_pair_weight_counts"]
    metrics["switch.branch_pair_weight_counts.cold_builds"] = (cold["units"], "count")
    metrics["switch.branch_pair_weight_counts.cold_s"] = (cold["cold_s"] * setup_factor, "s")

    metrics["share.merit_engine"] = (_outermost(tracer, passes, MERIT) / n / wall, "ratio")
    metrics["share.brute_oracle"] = (_outermost(tracer, passes, BRUTE) / n / wall, "ratio")
    metrics["trace.pass_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _per_call_ms(entry):
    return 1e3 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
