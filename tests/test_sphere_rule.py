"""The sphere-residual rule: one limit, ADMISSIBLE_RTOL * ||G||_1, in one place.

The kernels below are reference.cfg's kernel plus delta times a unit-mass
Gaussian of width 2, whose transform does not vanish on the sphere: at
delta = 1e-6 the residual is 1.55e-8 ||G||_1, inside the rule; at
delta = 1e-4 it is 1.55e-6 ||G||_1, outside it.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import llap
import llap.kernels
from llap.checks import _dichotomy_check
from llap.cli import EXIT_CERTIFICATE, EXIT_CHECK_FAILED, EXIT_CONFIG, main
from llap.config import load_config
from llap.fieldio import dump_field
from llap.grid import RealField, SymbolSpec, default_eta, make_grid
from llap.kernels import (
    Schedule,
    _admissible,
    _member_samples,
    _unit_mass_gaussian_field,
    kernel_from_field,
    make_kernel,
    make_sequence,
    project_orthogonal,
)
from llap.solver import CertificateError, certify, picard_solve

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "configs" / "reference.cfg"
DIFFERENCE = "family = difference\nwidth1 = 1.0\nwidth2 = 2.0\namplitude = 1.0"


def test_only_kernels_knows_the_rule():
    # No other module compares an orthogonality residual with a number or
    # reads ADMISSIBLE_RTOL: each goes through kernels._admissible.
    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)

    found = []
    for path in sorted(Path(llap.__path__[0]).glob("*.py")):
        if path.name == "kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                name(n) == "orth_residual" for n in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.lineno} compares orth_residual")
            if name(node) == "ADMISSIBLE_RTOL":
                found.append(f"{path.name}:{node.lineno} reads ADMISSIBLE_RTOL")
    assert found == []


@pytest.fixture(scope="module")
def reference():
    """reference.cfg's grid, symbol spec, kernel, nonlinearity and config."""
    cfg = load_config(str(REFERENCE_CFG))
    grid = cfg.grid()
    spec = cfg.symbol_spec(grid)
    return grid, spec, cfg.kernel(grid, spec), cfg.nonlinearity(grid), cfg


def _with_delta(reference, delta):
    grid, _, K, *_ = reference
    return K.samples.values + delta * _unit_mass_gaussian_field(grid, 2.0).values


def _config(reference, tmp_path, delta, lip="0.1"):
    """reference.cfg with l = lip and the delta kernel as a family = file dump."""
    dump_field(RealField(_with_delta(reference, delta), reference[0]), tmp_path / "kernel.llap")
    text = REFERENCE_CFG.read_text().replace(DIFFERENCE, "family = file\npath = kernel.llap")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("l = 0.1", f"l = {lip}"))
    return str(cfg)


def _exits(runner, reference, tmp_path, delta, commands):
    """Each command's exit on reference.cfg with the delta kernel."""
    cfg = _config(reference, tmp_path, delta)
    return [
        runner.invoke(main, [command, cfg, "-o", str(tmp_path / command)]).exit_code
        for command in commands
    ]


def test_kernel_inside_the_rule_passes_everywhere(runner, reference, tmp_path):
    # The certificate passed and verify's na_dichotomy row failed (exit 5),
    # and make_sequence refused the kernel as a limit (exit 2).
    commands = ("certify", "verify", "sequence")
    assert _exits(runner, reference, tmp_path, 1e-6, commands) == [0, 0, 0]


def test_kernel_outside_the_rule_refused_everywhere(runner, reference, tmp_path):
    commands = ("certify", "solve", "verify", "sequence")
    assert _exits(runner, reference, tmp_path, 1e-4, commands) == [
        EXIT_CERTIFICATE,
        EXIT_CERTIFICATE,
        EXIT_CHECK_FAILED,
        EXIT_CONFIG,
    ]


@pytest.mark.parametrize(
    "lip, failed",
    [
        pytest.param("0.1", "{residual}", id="residual"),
        pytest.param("1.0", "q = 2.65642 > 1 - eps_user = 0.9 and {residual}", id="both"),
    ],
)
def test_a_refusal_names_each_failed_condition(runner, reference, tmp_path, lip, failed):
    residual = "orthogonality residual 5.399e-06 > orth_threshold 3.482e-06"
    cfg = _config(reference, tmp_path, 1e-4, lip)
    result = runner.invoke(main, ["solve", cfg, "-o", str(tmp_path / "out")])
    reason = failed.format(residual=residual)
    assert result.stderr == f"certificate failed ({reason}); solve refused\n"
    cfg = load_config(cfg)
    grid = cfg.grid()
    spec = cfg.symbol_spec(grid)
    with pytest.raises(CertificateError) as info:
        picard_solve(cfg.kernel(grid, spec), cfg.nonlinearity(grid), spec, eps_user=cfg.eps_user)
    assert str(info.value) == f"certificate failed ({reason}); solve refused"


@pytest.mark.parametrize(
    "factor, delta, codes",
    [
        pytest.param(100.0, 1e-4, [0, 0, 0], id="x100"),
        pytest.param(0.01, 1e-6, [EXIT_CERTIFICATE, EXIT_CERTIFICATE, EXIT_CHECK_FAILED], id="/100"),
    ],
)
def test_a_moved_limit_moves_the_exits(runner, reference, tmp_path, monkeypatch, factor, delta, codes):
    # The rule's one constant decides both tests above: scaled by 100, the
    # delta = 1e-4 kernel passes; scaled by 1/100, the delta = 1e-6 kernel fails.
    monkeypatch.setattr(llap.kernels, "ADMISSIBLE_RTOL", factor * llap.kernels.ADMISSIBLE_RTOL)
    assert _exits(runner, reference, tmp_path, delta, ("certify", "solve", "verify")) == codes


def _verdicts(K, reference):
    """Every reading of the rule on K that no scaling of K may move."""
    _, spec, _, N, cfg = reference
    cert = certify(K, N, spec, cfg.eps_user)
    row = _dichotomy_check(K, spec)
    try:
        make_sequence(K, cfg.schedule(), spec, cfg.taper_width)
        accepted = True
    except ValueError:
        accepted = False
    return (
        _admissible(K, spec)[0],
        cert.orth_residual <= cert.orth_threshold,
        (row.passed, row.value, row.detail.split(":")[0]),
        accepted,
    )


@pytest.fixture(scope="module")
def unscaled(reference):
    """The delta = 1e-6 and 1e-4 kernels and reference.cfg's kernel, with their verdicts."""
    fields = [_with_delta(reference, delta) for delta in (1e-6, 1e-4, 0.0)]
    kernels = [kernel_from_field(RealField(f, reference[0])) for f in fields]
    return [(f, _verdicts(K, reference)) for f, K in zip(fields, kernels)]


@pytest.fixture(scope="module")
def truncated_3d():
    """Member 3 of reference.cfg's truncation schedule on d=3, n=40, L=14, with its spec.

    Its projection leaves a residual of 7.1e-10 against the target 3.6e-10.
    """
    grid = make_grid(3, 14.0, 40)
    G = make_kernel("difference", {"width1": 1.0, "width2": 2.0, "amplitude": 1.0}, grid)
    return _member_samples(G, Schedule("truncate", 6), 3), SymbolSpec(0.0, default_eta(grid, 0.0))


def _projected(field, spec) -> bool:
    """Whether project_orthogonal accepts the kernel of field."""
    try:
        project_orthogonal(kernel_from_field(field), spec, 0.5)
    except ValueError:
        return False
    return True


@settings(max_examples=6, deadline=None, derandomize=True)
@given(k=st.integers(-100, 100))
@example(k=-100)
@example(k=-10)
@example(k=100)
def test_no_verdict_moves_with_the_kernel_scale(reference, unscaled, truncated_3d, k):
    grid = reference[0]
    for values, verdicts in unscaled:
        K = kernel_from_field(RealField(values * 2.0**k, grid))
        assert _verdicts(K, reference) == verdicts
    field, spec = truncated_3d
    assert not _projected(RealField(field.values * 2.0**k, field.grid), spec)
