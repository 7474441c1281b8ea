"""OPT7xx solution-certificate rules and cache audits (the clean/mutant
corpus gate lives in tests/lint/test_corpus.py)."""

import pytest

from repro.lint import lint_circuit
from repro.lint.solution import (
    CERTIFICATE_FORMAT,
    SolutionCertificate,
    SolutionCertificateStore,
    check_certificate,
    widths_digest,
)
from repro.lint.solution.mutate import solved_base
from repro.lint.solution.rules import build_solution_options

OPT_RULES = ("OPT701", "OPT702", "OPT703", "OPT704", "OPT705")


def _opt(report):
    return sorted({
        d.rule_id for d in report.diagnostics
        if d.rule_id.startswith("OPT7")
    })


def _solution(circuit, options, **kwargs):
    return lint_circuit(
        circuit, groups=("solution",), options=options, **kwargs
    )


@pytest.fixture(scope="module")
def base():
    return solved_base()


# -- registration ----------------------------------------------------------


def test_rules_registered():
    from repro.lint.registry import all_rules

    ids = {r.id for r in all_rules()}
    for rule_id in OPT_RULES:
        assert rule_id in ids


def test_rules_inert_without_payload(base):
    report = _solution(base.circuit, {})
    assert not report.diagnostics


# -- the honest point passes every rule ------------------------------------


def test_honest_collapsed_point_is_clean(base):
    options = build_solution_options(
        base.widths, base.spec, classes=base.classes,
        certificate=base.certificate,
    )
    report = _solution(base.circuit, {"solution": options})
    assert not report.errors, [d.message for d in report.errors]


# -- certificate binding checks (OPT704/OPT705 unit behavior) --------------


def test_check_certificate_bindings(base):
    cert = dict(base.certificate)
    env = dict(base.widths)

    ok, reason = check_certificate(
        cert, key=base.cache_key, env=env, tolerance=2.0
    )
    assert ok, reason

    ok, reason = check_certificate(
        None, key=base.cache_key, env=env, tolerance=2.0
    )
    assert not ok and "no certificate" in reason

    ok, reason = check_certificate(
        cert, key="deadbeef", env=env, tolerance=2.0
    )
    assert not ok and "key" in reason

    tampered = dict(env)
    tampered[sorted(tampered)[0]] *= 2.0
    ok, reason = check_certificate(
        cert, key=base.cache_key, env=tampered, tolerance=2.0
    )
    assert not ok and "digest" in reason

    forged = dict(cert)
    forged["ok"] = False
    ok, reason = check_certificate(
        forged, key=base.cache_key, env=env, tolerance=2.0
    )
    assert not ok

    stale = dict(cert)
    stale["facets"] = dict(cert["facets"], sizing="0" * 16)
    ok, reason = check_certificate(
        stale, key=base.cache_key, env=env, tolerance=2.0,
        facets=cert["facets"],
    )
    assert not ok and "stale" in reason


def test_opt704_quiet_on_fresh_certificate(base):
    report = _solution(
        base.circuit, {"solution": {"certificate": dict(base.certificate)}}
    )
    assert _opt(report) == []


def test_opt705_tolerates_entry_without_certificate(base):
    entry = {"key": "abc123", "env": dict(base.widths), "tolerance": 2.0}
    report = _solution(
        base.circuit,
        {"solution": {"cache": {"entries": [entry], "certificates": {}}}},
    )
    assert _opt(report) == []


# -- certificate store round trip ------------------------------------------


def test_certificate_store_roundtrip(tmp_path, base):
    path = str(tmp_path / "certs.jsonl")
    store = SolutionCertificateStore(path)
    store.put(SolutionCertificate.from_payload(base.certificate))

    reloaded = SolutionCertificateStore(path)
    assert len(reloaded) == 1
    got = reloaded.get(base.cache_key)
    assert got is not None
    assert got["format"] == CERTIFICATE_FORMAT
    assert got["widths_digest"] == widths_digest(base.widths)


def test_widths_digest_stable_under_rounding():
    a = {"X": 1.2345678901234, "Y": 2.0}
    b = {"Y": 2.0, "X": 1.23456789008}  # same at 9 dp, different order
    assert widths_digest(a) == widths_digest(b)
    assert widths_digest(a) != widths_digest({"X": 1.23456790, "Y": 2.0})
