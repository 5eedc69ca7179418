"""Tests of the benchmark itself: deterministic per-layer counts, complete
wrapping, and BENCHMARK.json matching what run.py prints.

    python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

COUNT_STATS = ("calls", "stages", "basis_out", "kept_frac", "zero_frac", "bytes_in")

# layers each workload is there to measure; their calls must be nonzero
REACHED = {
    "ci_quartic": ("resolution.resolve", "resolution.minimal_generators",
                   "resolution.ext_numerator", "groebner.buchberger",
                   "groebner.interreduce", "groebner.normal_form",
                   "groebner.syzygies_of", "kernels.normal_form_arrays"),
    "gaeta_generic": ("glicci.gaeta_run", "glicci.GlicciCertificate.replay",
                      "liaison.direct_link", "ideals.Ideal.intersect",
                      "ideals.Ideal.colon", "ideals.Ideal.colon_poly",
                      "groebner.buchberger", "kernels.normal_form_arrays",
                      "kernels.merge_sub"),
    "cli_golden": ("cli.parse_session", "cli.run", "cli.emit_report",
                   "kernels.canonicalize"),
    "points_cb": ("gorenstein.PointSet.ideal", "gorenstein.PointSet.hf",
                  "gorenstein.cayley_bacharach_check", "gorenstein.wlp_check",
                  "ideals.Ideal.intersect"),
}


def _traced_run(workload, seed):
    res = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=True,
    )
    return json.loads(res.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    a, b = _traced_run(workload, 7), _traced_run(workload, 7)
    assert a["correct"] and b["correct"]
    counts = {
        name: value["value"]
        for name, value in a["metrics"].items()
        if name.rsplit(".", 1)[-1] in COUNT_STATS
    }
    assert counts == {name: b["metrics"][name]["value"] for name in counts}
    # every layer the workload exists to measure is reached
    assert all(counts[f"{layer}.calls"] > 0 for layer in REACHED[workload])


def _originals():
    out = {}
    for module, qualname in spans.LAYERS:
        owner = importlib.import_module(f"liaisonlab.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part)
        out[id(owner)] = f"{module}.{qualname}"
    return out


def test_tracer_patches_every_binding_and_restores_them():
    import workloads  # noqa: F401  (its bindings must be patched too)
    from liaisonlab import ideals, resolution
    from liaisonlab.ring import Ring

    originals = _originals()
    tracer = spans.Tracer()
    with tracer:
        left = [
            f"{mod.__name__}.{attr} -> {originals[id(value)]}"
            for mod in list(sys.modules.values())
            if isinstance(mod, types.ModuleType)
            for attr, value in vars(mod).items()
            if id(value) in originals
        ]
        assert left == []
        # calls through the importing modules' own names are seen
        R = Ring(3, 32003)
        x, y, z = R.gens()
        resolution.buchberger([x * y - z * z, x * x - y * z])
        ideals.Ideal(R, [x, y]).contains(x * z)
    assert tracer.counts[("groebner", "buchberger")]["calls"] >= 2
    assert tracer.counts[("groebner", "normal_form")]["calls"] >= 1
    assert _originals() == originals


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in spans.metric_specs()
    ]


def test_speed_correction_is_a_time_weighted_mean_speed():
    import speed

    ref = speed.REF_KERNEL_S
    assert speed.correction([ref, ref]) == pytest.approx(1.0)
    # half the span at the reference speed, half at half of it
    assert speed.correction([ref, 2 * ref]) == pytest.approx(0.75)
