"""Frozen outputs: emitted answers on fixed seeds, and byte-identical reports
across processes.

The golden ``emissions_sha256`` and ``max_stretch`` values pin what each
structure emits (every level change and every probe answer).  A change to
the repair loops must leave them as they are; a change that alters outputs
on purpose regenerates them and says why.  The ``work_*`` counters are not
pinned: they measure effort, which a faster repair loop is meant to lower.
A bare exact tree's change stream is pinned the same way in
``test_es_tree.py``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from decrsp.harness import RunConfig, generate_instance, run_with_oracle

SRC = str(Path(__file__).resolve().parent.parent / "src")

FROZEN = [
    (
        (40, 120, 32, 6),
        RunConfig(mode="sssp", seed=2, oracle_stride=4),
        "fb2d766faae185e766b4edeb1e2d4d0d9fda4dbd4ef2f397684fd58d4c42476e",
        "1",
    ),
    (
        (30, 60, 8, 0),
        RunConfig(mode="sssp", p=4, q=3, c=0.3, seed=3, oracle_stride=4),
        "85a770c42ff57679cf8fdbb8c3898bed4d48bb492f49629deb697e4fc6038ec8",
        "317/315",
    ),
    # Layered bands on a graph large enough that the clamp to the previous
    # answer binds: an update leaves some node's least band answer below
    # its answer, and an answer that followed it would fall.
    (
        (48, 96, 16, 9),
        RunConfig(mode="sssp", p=4, q=3, c=0.3, seed=3, oracle_stride=4),
        "5c56d1425c9c4a3c344c47f2426468f8934e8b4cb885718ae9ca69016ab9ae68",
        "4433/4428",
    ),
    (
        (24, 48, 8, 8),
        RunConfig(mode="apsp", k=2, c=0.3, seed=4, oracle_stride=4),
        "dc982118d95b555d01c679b1210f50a85e8eb722d5fdd95975ad29b07ee5bf08",
        "1",
    ),
    (
        (24, 48, 8, 8),
        RunConfig(mode="apsp", k=3, c=0.4, seed=5, oracle_stride=4),
        "50ae6762b2df4050fcecf8aa1611aa2213a8957284475a0043a05226ad2efd6c",
        "1",
    ),
]


def _schedule(n, m, w_max, seed):
    return generate_instance(n, m, w_max, "erdos-renyi", 1.0, seed=seed,
                             increase_rate=0.3, query_rate=0.3)


@pytest.mark.parametrize(
    "shape, config, emissions, stretch",
    FROZEN,
    ids=["sssp-default", "sssp-p4q3", "sssp-p4q3-late", "apsp", "apsp-k3"],
)
def test_emissions_and_stretch_are_frozen(shape, config, emissions, stretch):
    report = run_with_oracle(_schedule(*shape), config)
    lines = report.render().splitlines()
    assert "underestimate_violations=0" in lines
    assert "invariant_failures=0" in lines
    assert "emissions_sha256=%s" % emissions in lines
    assert "max_stretch=%s" % stretch in lines


def _cli_output(graph, updates, extra, *, hash_seed, optimize=False):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable] + (["-O"] if optimize else [])
    cmd += ["-m", "decrsp.cli"] + extra + ["--graph", graph, "--updates", updates,
                                           "--seed", "1", "--oracle-stride", "3"]
    done = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize(
    "extra",
    [["check"], ["check", "--p", "4", "--q", "3", "--c", "0.3"],
     ["apsp", "--oracle-check", "--c", "0.3"]],
    ids=["default", "p4q3", "apsp"],
)
def test_check_reports_match_across_hash_seeds_and_optimize(tmp_path, extra):
    sched = _schedule(24, 60, 16, 9)
    graph = tmp_path / "g.txt"
    updates = tmp_path / "u.txt"
    graph.write_text(sched.dump_graph())
    updates.write_text(sched.dump_updates())
    args = (str(graph), str(updates), extra)
    base = _cli_output(*args, hash_seed=0)
    assert b"emissions_sha256=" in base
    if extra[0] == "apsp":
        assert b"\nQ " in base  # the probe answers follow the report
    assert _cli_output(*args, hash_seed=1) == base
    assert _cli_output(*args, hash_seed=0, optimize=True) == base
