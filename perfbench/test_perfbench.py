"""Tests for the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402  (puts the checkout's src/ on the path)

import layers  # noqa: E402
import rfcalc.cli  # noqa: E402
import run  # noqa: E402
import rfcalc.elementary  # noqa: E402
from tracer import Tracer  # noqa: E402


def _small_requests(seed: int) -> list:
    """A quick slice of every request class of quad and tower."""
    quad = wl.generate("quad", seed, 1)[0]
    tower = wl.generate("tower", seed, 1)[0]
    out = [r for r in quad if r.expect.get("level", 99) <= 10 or r.expect.get("n_to", 0) == 2 ** 10]
    seen = set()
    for r in tower:
        small = r.kind != "direct_eval" or r.args[-1] <= 2 ** 12
        if r.cls not in seen and small and r.cls not in ("c:exp", "c:pow2", "c:sqrtpow", "c:cosh"):
            seen.add(r.cls)
            out.append(r)
    return out


def test_generators_are_seed_deterministic():
    for name in wl.WORKLOADS:
        assert wl.generate(name, 7, 3) == wl.generate(name, 7, 3)
    for name in ("quad", "tower"):
        assert wl.generate(name, 7, 1) != wl.generate(name, 8, 1)


def test_quad_batches_have_the_same_shape_on_every_seed():
    for seed in (1, 2):
        batch = wl.generate("quad", seed, 1)[0]
        slots = sorted((r.expect["family"], r.expect.get("level", r.expect.get("n_to"))) for r in batch)
        want = [(f, lv) for f, lv in wl.QUAD_SLOTS] + [(f, 2 ** lv) for f, lv in wl.QUAD_CONVERGE_SLOTS]
        assert slots == sorted(want)


def _data_rows(csv: str) -> list[str]:
    return [line for line in csv.splitlines() if line and not line.startswith("#")]


def _replace_field(csv: str, row: int, col: int, value: str) -> str:
    lines = csv.splitlines()
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    fields = lines[data[row]].split(",")
    fields[col] = value
    lines[data[row]] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_quad_oracle_accepts_output_and_rejects_perturbed_values():
    for req in wl.generate("quad", 3, 1)[0]:
        if req.expect.get("level", 99) > 10 and req.expect.get("n_to") != 2 ** 10:
            continue
        rc, text = wl.execute(req)
        assert wl.check(req, (rc, text)) is None
        # integrate: the value is the first field of the only data row;
        # converge: the second field of the last row.
        row, col = (1, 0) if req.fn == "integrate" else (-1, 1)
        value = float(_data_rows(text)[row].split(",")[col])
        bad = _replace_field(text, row, col, repr(value + 3.0 * req.expect["tol"]))
        assert wl.check(req, (rc, bad)) is not None
        assert wl.check(req, (2, text)) is not None
        if req.fn == "integrate":
            assert wl.check(req, (rc, _replace_field(text, 1, 4, "false"))) is not None


def _perturbed(req, value):
    if req.fn == "log_construct":
        return type(value)(value.value + 2.0 * value.bound + 1e-9, value.bound)
    if req.fn == "log_limit_bounds":
        return type(value)(value.lower + 1.0, value.upper + 1.0)
    if isinstance(value, complex):
        return value + complex(1.0, 1.0)
    if req.fn == "inverse_fn":
        return value + 1e-6
    if req.kind == "elementary":
        return value * (1.0 + 1e-6)
    return value + 1.0 + abs(value)


def test_tower_oracles_reject_perturbed_values():
    checked = set()
    for req in wl.generate("tower", 4, 1)[0]:
        if req.kind == "cli" or req.cls in checked or wl.known_defect(req):
            continue
        if req.kind == "direct_eval" and req.args[-1] > 2 ** 12:
            continue
        value = wl.execute(req)
        assert wl.check(req, value) is None, req
        assert wl.check(req, _perturbed(req, value)) is not None, req
        checked.add(req.cls)
    assert {"a:log", "a:exp", "a:pow", "a:cosh", "a:arctan", "b:demoivre_riemann_sum",
            "b:log_limit_bounds", "b:telescope_sec2", "b:csc2_riemann_sum"} <= checked


def test_tower_times_no_known_defect_input_and_probes_them_instead():
    timed = [r for batch in wl.generate("tower", 7, 2) for r in batch if r.kind == "elementary"]
    assert not any(wl.known_defect(r) for r in timed)
    probes = wl.probes("tower", 7)
    assert probes == wl.probes("tower", 7)
    assert probes and all(wl.known_defect(r) for r in probes)
    assert {"a:sinh", "a:coth", "a:arcsin", "a:arsinh", "a:arcosh", "a:artanh"} <= {r.cls for r in probes}
    assert wl.probes("quad", 7) == wl.probes("verify", 7) == []


def _verify_csv() -> str:
    rows = ["name,lhs,rhs,abs_diff,tol,pass,anchor"]
    for name, truth in sorted(wl.CATALOG_TRUTH.items()):
        rows.append(f"{name},{truth!r},{truth!r},0,1e-06,true,anchor")
    rows.append("log-functional-equation,0.5,0.5,0,3e-12,true,log(xy) = log x + log y")
    return "\n".join(rows) + "\n"


def test_verify_oracle_rejects_perturbed_values():
    req = wl.verify_batch(1)[0]
    csv = _verify_csv()
    assert wl.check_verify(req, (0, csv)) is None
    assert wl.check_verify(req, (0, csv), reference_csv=csv) is None
    assert wl.check_verify(req, (3, csv)) is not None
    assert wl.check_verify(req, (0, csv), reference_csv=csv.replace("0,1e-06", "0,1e-6", 1)) is not None
    first = sorted(wl.CATALOG_TRUTH)[0]
    moved = _replace_field(csv, 1, 1, repr(wl.CATALOG_TRUTH[first] + 2e-6))
    assert wl.check_verify(req, (0, moved)) is not None
    assert wl.check_verify(req, (0, _replace_field(csv, 3, 5, "false"))) is not None
    assert wl.check_verify(req, (0, "\n".join(csv.splitlines()[:-3]) + "\n")) is not None


def _traced(requests):
    tracer = Tracer()
    layers.install(tracer)
    try:
        outputs = []
        for rid, req in enumerate(requests):
            outputs.append(tracer.request(rid, wl.execute, req))
    finally:
        tracer.uninstall()
    return outputs, layers.layer_metrics(tracer)


def test_traced_run_changes_no_output_and_repeats_its_work_counts():
    requests = _small_requests(5)
    main, log = rfcalc.cli.main, rfcalc.elementary.log_construct
    plain = [wl.execute(req) for req in requests]
    outputs, first = _traced(requests)
    again, second = _traced(requests)
    assert outputs == plain == again
    assert rfcalc.cli.main is main and rfcalc.elementary.log_construct is log
    counts = {name: first[name] for name in layers.WORK_COUNTS if name in first}
    assert counts == {name: second[name] for name in counts}
    assert first["cli.main.calls"] == sum(1 for r in requests if r.kind == "cli")
    assert first["expr.eval_expr.points"] > 0 and first["elementary.log_construct.calls"] > 0


def test_quad_makes_no_tower_calls():
    quad = [r for r in wl.generate("quad", 6, 1)[0] if r.expect.get("level", 99) <= 9]
    _, metrics = _traced(quad)
    assert metrics["expr.eval_expr.points"] > 0
    assert metrics["elementary.log_construct.calls"] == 0
    assert metrics["elementary.exp_construct.calls"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "quad", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_printed_metrics():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
