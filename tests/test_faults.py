"""Chaos suite: injected faults vs the engine's self-healing machinery.

Everything here runs under :mod:`repro.faults` plans, which make every
injection decision a pure function of ``(seed, site, key, attempt)`` — the
same plan injects the same faults on every run, in every process.  The
engine's recovery contract under test:

* **byte identity** — a batch that recovered from crashes / hangs /
  transient errors produces streams byte-identical to the single-shot
  reference (recovery changes wall-clock, never bytes);
* **quarantine order** — a poison task surfaces as a structured
  :class:`TaskFailure` in its own result slot (``on_error="return"``)
  without shifting any surviving result;
* **lifecycle** — a worker crash never leaks a wedged executor:
  ``close()`` returns, and the same engine runs the next batch;
* **taxonomy** — no raw ``BrokenProcessPool``/``TimeoutError`` escapes an
  engine entry point; callers see :class:`ReproError` subclasses;
* **bounded retries** — the ``engine.retry`` counter stays within the
  ``tasks x retries`` budget (no retry storms).

CI matrix knobs match the differential suite: ``ENGINE_JOBS`` sets the
parallel worker count (default 2), ``ENGINE_POOL`` restricts pool kinds.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import faults, telemetry
from repro.core.pipeline import FZGPU
from repro.engine import DEFAULT_RETRIES, Engine, TaskFailure
from repro.errors import (
    ConfigError,
    EngineError,
    ReproError,
    TaskError,
    TaskTimeoutError,
    TransientTaskError,
    WorkerCrashError,
)

# Chaos runs spin real pools through crash/hang/retry schedules — minutes,
# not seconds.  Tier-2: the chaos CI job opts in with RUN_SLOW=1.
pytestmark = pytest.mark.slow

JOBS = int(os.environ.get("ENGINE_JOBS", "2"))
POOL_MATRIX = (
    [os.environ["ENGINE_POOL"]]
    if os.environ.get("ENGINE_POOL")
    else ["thread", "process"]
)

EB = 1e-3

#: Tiny backoff so retry-heavy tests stay fast; semantics are unchanged.
FAST = {"backoff": 0.001}


def _fields(n: int = 8, seed: int = 99) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [
        np.cumsum(rng.standard_normal((24, 18)), axis=0).astype(np.float32)
        for _ in range(n)
    ]


@pytest.fixture(scope="module")
def fields():
    return _fields()


@pytest.fixture(scope="module")
def reference(fields):
    return FZGPU()


@pytest.fixture(scope="module")
def ref_results(fields, reference):
    return [reference.compress(f, EB, "rel") for f in fields]


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    yield
    faults.uninstall()


# ---------------------------------------------------------------------------
# plan parsing / determinism
# ---------------------------------------------------------------------------


def test_plan_parse():
    text = "worker_crash:at=2|5;transient_error:p=0.25,times=2,seed=7"
    plan = faults.FaultPlan.parse(text)
    assert plan.specs == {
        "worker_crash": faults.FaultSpec("worker_crash", at=frozenset({2, 5})),
        "transient_error": faults.FaultSpec(
            "transient_error", p=0.25, times=2, seed=7
        ),
    }


def test_plan_decisions_are_pure_functions():
    spec = faults.FaultSpec("transient_error", p=0.5, seed=3)
    draws = [spec.should(k, 0) for k in range(64)]
    assert draws == [spec.should(k, 0) for k in range(64)]
    assert any(draws) and not all(draws), "p=0.5 should mix outcomes"


def test_plan_times_limits_attempts():
    spec = faults.FaultSpec("transient_error", times=2)
    assert spec.should(0, 0) and spec.should(0, 1)
    assert not spec.should(0, 2), "attempt >= times must not inject"


@pytest.mark.parametrize(
    "bad",
    [
        "bogus_site:p=1",
        "transient_error:p=2",
        "transient_error:nope=1",
        "transient_error:p=x",
        "worker_crash:at=1;worker_crash:at=2",
        "worker_hang:hang_s=0",
        "transient_error:times=0",
    ],
)
def test_plan_rejects_bad_syntax(bad):
    with pytest.raises(ConfigError):
        faults.FaultPlan.parse(bad)


def test_empty_plan_disables_inherited_faults(monkeypatch, fields, ref_results):
    # the workers fork with an always-failing plan in their environment,
    # but the parent installed "no faults": the env copy must not leak through
    monkeypatch.setenv(faults.ENV_VAR, "transient_error:p=1")
    with faults.installed(faults.FaultPlan()):
        with Engine(jobs=2, pool="process", retries=0, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == [r.stream for r in ref_results]


def test_env_activation(monkeypatch, fields, ref_results):
    monkeypatch.setenv(faults.ENV_VAR, "transient_error:at=1")
    with Engine(retries=0, **FAST) as engine:
        with pytest.raises(ReproError):
            engine.compress_batch(fields, EB, "rel")
    # one retry absorbs the single injected failure (times defaults to 1)
    with Engine(retries=1, **FAST) as engine:
        results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == [r.stream for r in ref_results]


# ---------------------------------------------------------------------------
# chaos matrix: pool x operation x fault kind, all byte-identical after
# recovery
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pool", POOL_MATRIX)
@pytest.mark.parametrize(
    "plan",
    [
        "worker_crash:at=5",
        "transient_error:p=0.4,seed=7",
        "transient_error:at=0|3|6,times=2",
    ],
    ids=["crash", "transient-random", "transient-repeat"],
)
def test_compress_recovers_byte_identical(pool, plan, fields, ref_results):
    with faults.installed(faults.FaultPlan.parse(plan)):
        with Engine(jobs=JOBS, pool=pool, retries=3, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == [r.stream for r in ref_results]


@pytest.mark.parametrize("pool", POOL_MATRIX)
@pytest.mark.parametrize(
    "plan",
    ["worker_crash:at=2", "transient_error:p=0.4,seed=11"],
    ids=["crash", "transient"],
)
def test_decompress_recovers_bit_identical(pool, plan, fields, reference,
                                           ref_results):
    expected = [reference.decompress(r.stream) for r in ref_results]
    with faults.installed(faults.FaultPlan.parse(plan)):
        with Engine(jobs=JOBS, pool=pool, retries=3, **FAST) as engine:
            recons = engine.decompress_batch([r.stream for r in ref_results])
    for got, want in zip(recons, expected):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_hang_is_timed_out_and_retried(pool, fields, ref_results):
    plan = faults.FaultPlan.parse("worker_hang:at=3,hang_s=5")
    with faults.installed(plan):
        with Engine(
            jobs=JOBS, pool=pool, retries=2, task_timeout=0.2, **FAST
        ) as engine:
            results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == [r.stream for r in ref_results]


def test_inline_engine_retries_too(fields, ref_results):
    with faults.installed(faults.FaultPlan.parse("transient_error:p=0.5,seed=2")):
        with Engine(jobs=1, retries=3, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == [r.stream for r in ref_results]


# ---------------------------------------------------------------------------
# poison tasks: quarantine without reordering survivors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_poison_task_quarantined_in_place(pool, fields, ref_results):
    poison = {2, 5}
    plan = faults.FaultPlan.parse("transient_error:at=2|5,times=99")
    with faults.installed(plan):
        with Engine(jobs=JOBS, pool=pool, retries=2, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel", on_error="return")
    assert len(results) == len(fields)
    for i, (res, ref) in enumerate(zip(results, ref_results)):
        if i in poison:
            assert isinstance(res, TaskFailure)
            assert res.index == i
            assert res.attempts == 3  # retries=2 -> three attempts
            assert res.error_type == "TransientTaskError"
            assert all(kind == "transient" for kind in res.history)
        else:
            assert res.stream == ref.stream, f"survivor {i} reordered/corrupted"


def test_poison_task_raises_task_error(fields):
    plan = faults.FaultPlan.parse("transient_error:at=1,times=99")
    with faults.installed(plan):
        with Engine(jobs=1, retries=1, **FAST) as engine:
            with pytest.raises(TaskError) as excinfo:
                engine.compress_batch(fields, EB, "rel")
    failure = excinfo.value.failure
    assert failure.index == 1 and failure.attempts == 2
    assert isinstance(excinfo.value, ReproError)


def test_deterministic_errors_do_not_retry():
    # a malformed stream is not transient: no retries, original taxonomy
    with Engine(jobs=1, retries=5, **FAST) as engine:
        with pytest.raises(ReproError) as excinfo:
            engine.decompress_batch([b"not a stream"])
    assert not isinstance(excinfo.value, EngineError)


def test_on_error_validated(fields):
    with Engine(**FAST) as engine:
        with pytest.raises(ConfigError):
            engine.compress_batch(fields, EB, "rel", on_error="ignore")


# ---------------------------------------------------------------------------
# acceptance: worker crash mid 32-field process batch, transparent retry
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    os.environ.get("ENGINE_POOL", "process") != "process",
    reason="process pool excluded by ENGINE_POOL",
)
def test_acceptance_crash_during_32_field_process_batch():
    fields = _fields(32, seed=7)
    expected = [FZGPU().compress(f, EB, "rel").stream for f in fields]
    with faults.installed(faults.FaultPlan.parse("worker_crash:at=17")):
        with Engine(jobs=JOBS, pool="process", retries=2, **FAST) as engine:
            results = engine.compress_batch(fields, EB, "rel")
    assert [r.stream for r in results] == expected


# ---------------------------------------------------------------------------
# lifecycle: crashes must not leak a wedged executor (regression)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_crash_with_no_retries_surfaces_repro_error_and_engine_survives(
    pool, fields, ref_results
):
    engine = Engine(jobs=JOBS, pool=pool, retries=0, **FAST)
    try:
        with faults.installed(faults.FaultPlan.parse("worker_crash:at=1,times=99")):
            with pytest.raises(ReproError) as excinfo:
                engine.compress_batch(fields, EB, "rel")
        assert isinstance(excinfo.value, TaskError)
        assert excinfo.value.failure.error_type in (
            "WorkerCrashError", "TaskTimeoutError",
        )
        # the plan is gone: the SAME engine must recover and finish a batch
        results = engine.compress_batch(fields, EB, "rel")
        assert [r.stream for r in results] == [r.stream for r in ref_results]
    finally:
        engine.close()  # must return promptly — the old leak hung here
    assert engine._executor is None


def test_timeout_surfaces_as_task_timeout_error(fields):
    plan = faults.FaultPlan.parse("worker_hang:at=0,times=99,hang_s=5")
    with faults.installed(plan):
        with Engine(jobs=JOBS, pool="thread", retries=0,
                    task_timeout=0.15, **FAST) as engine:
            with pytest.raises(TaskError) as excinfo:
                engine.compress_batch(fields[:2], EB, "rel")
    assert excinfo.value.failure.error_type == "TaskTimeoutError"
    assert isinstance(excinfo.value, ReproError)


def test_close_is_idempotent_after_degradation(fields):
    engine = Engine(jobs=JOBS, pool="thread", retries=1,
                    task_timeout=0.15, **FAST)
    plan = faults.FaultPlan.parse("worker_hang:at=0,hang_s=0.4")
    with faults.installed(plan):
        engine.compress_batch(fields[:3], EB, "rel")
    engine.close()
    engine.close()
    assert engine._executor is None


# ---------------------------------------------------------------------------
# retry accounting: telemetry signals + storm guard
# ---------------------------------------------------------------------------


def _counters(snap: dict) -> dict:
    return {
        (name, tuple(map(tuple, labels))): value
        for name, labels, value in snap["metrics"]["counters"]
    }


@pytest.mark.parametrize("pool", POOL_MATRIX)
def test_retry_budget_is_bounded(pool, fields):
    """Storm guard: total retries can never exceed tasks x retries."""
    retries = 2
    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    try:
        plan = faults.FaultPlan.parse("transient_error:p=0.6,seed=13,times=2")
        with faults.installed(plan):
            with Engine(jobs=JOBS, pool=pool, retries=retries, **FAST) as engine:
                engine.compress_batch(fields, EB, "rel", on_error="return")
        snap = rec.snapshot()
    finally:
        rec.enabled = False
        rec.clear()
    counters = _counters(snap)
    total_retries = sum(
        v for (name, _), v in counters.items() if name == "engine.retry"
    )
    assert total_retries <= len(fields) * retries
    injected = sum(
        v for (name, _), v in counters.items() if name == "faults.injected"
    )
    assert injected > 0, "the plan should actually have fired"


def test_recovery_emits_retry_and_quarantine_signals(fields):
    rec = telemetry.get_recorder()
    rec.clear()
    rec.enabled = True
    try:
        plan = faults.FaultPlan.parse("transient_error:at=1,times=99")
        with faults.installed(plan):
            with Engine(jobs=1, retries=1, **FAST) as engine:
                engine.compress_batch(fields[:3], EB, "rel", on_error="return")
        snap = rec.snapshot()
    finally:
        rec.enabled = False
        rec.clear()
    counters = _counters(snap)
    assert counters[("engine.retry", (("reason", "transient"),))] == 1
    assert counters[("engine.task_quarantined", (("reason", "transient"),))] == 1
    assert ("faults.injected", (("site", "transient_error"),)) in counters
    names = [ev["name"] for ev in snap["events"]]
    assert "engine.retry" in names, "backoff must be traced as a span"
