import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import contextuality
from contextuality.analytic import delta0_cbd, delta0_present, max_coupling_probability
from contextuality.builders import build_lp, build_present_lp
from contextuality.errors import CertificationFailure, TooLarge, ValidationError
from contextuality.examples import disjoint_support_system, pr_box
from contextuality.oracle import (
    SystemShape,
    brute_force_max_coupling,
    cross_check,
    random_pmf,
    random_system,
    run_selftest,
    solve_float,
)
from contextuality.system import Pmf, consistency_report, point_mass


def test_brute_force_matches_closed_form_examples():
    from contextuality.analytic import pmf_from_mean

    a, b = pmf_from_mean(F(1, 2)), pmf_from_mean(F(-1, 2))
    assert brute_force_max_coupling([a, b]) == F(1, 2)
    assert brute_force_max_coupling([a, a]) == 1
    alpha = (0, 1, 2)
    points = [point_mass([alpha], (k,)) for k in range(3)]
    assert brute_force_max_coupling(points) == 0


def test_brute_force_matches_closed_form_random():
    rng = random.Random(30)
    for _ in range(30):
        size = rng.randint(2, 4)
        k = rng.randint(2, 4)
        margs = [random_pmf(rng, [tuple(range(size))]) for _ in range(k)]
        assert brute_force_max_coupling(margs) == max_coupling_probability(margs)


def test_brute_force_caps():
    one = Pmf([(0, 1)], {(0,): F(1)})
    with pytest.raises(TooLarge):
        brute_force_max_coupling([one] * 5)
    wide = Pmf([tuple(range(7))], {(0,): F(1)})
    with pytest.raises(TooLarge):
        brute_force_max_coupling([wide, wide])


def test_brute_force_refuses_a_failed_certificate(monkeypatch):
    # the check must hold under python -O too, so it cannot be an assert
    monkeypatch.setattr("contextuality.lp.verify_certificate", lambda lp, sol: False)
    with pytest.raises(CertificationFailure):
        brute_force_max_coupling([Pmf([(0, 1)], {(0,): F(1)})] * 2)


def test_random_system_deterministic():
    shape = SystemShape(2, 2, consistent=False, seed=7)
    assert random_system(shape) == random_system(shape)
    other = random_system(SystemShape(2, 2, consistent=False, seed=8))
    assert random_system(shape) != other


def test_random_system_consistent_flag():
    sysd = random_system(SystemShape(2, 2, consistent=True, seed=1))
    assert consistency_report(sysd).consistent
    assert delta0_present(sysd) == 0
    assert delta0_cbd(sysd) == 0


def test_random_system_inconsistent_still_valid():
    sysd = random_system(SystemShape(2, 2, consistent=False, seed=7))
    for c in sysd.contexts:
        total = sum((w for _, w in sysd.bunch(c.id).items()), F(0))
        assert total == 1


def test_random_system_denominators_bounded():
    for seed in range(5):
        for consistent in (False, True):
            sysd = random_system(SystemShape(2, 2, consistent=consistent, seed=seed))
            for c in sysd.contexts:
                for _, w in sysd.bunch(c.id).items():
                    assert w.denominator <= 64


def test_random_system_larger_alphabet():
    sysd = random_system(SystemShape(2, 2, alphabet_size=3, consistent=True, seed=2))
    assert consistency_report(sysd).consistent
    assert all(len(p.alphabet) == 3 for p in sysd.properties)


def test_solve_float_trivial():
    from contextuality.lp import LinearProgram

    lp = LinearProgram(("q1", "q2"), (F(1), F(0)), ({0: F(1), 1: F(1)},), (F(1),))
    res = solve_float(lp)
    assert res.status == "optimal"
    assert abs(res.objective) <= 1e-12


def test_solve_float_disjoint_present():
    res = solve_float(build_present_lp(disjoint_support_system()))
    assert res.status == "optimal"
    assert abs(res.objective - 3.0) <= 1e-7


def test_solve_float_pr_box_cbd():
    res = solve_float(build_lp(pr_box(), "cbd"))
    assert abs(res.objective - 1.0) <= 1e-7


def test_solve_float_infeasible_status():
    from contextuality.lp import LinearProgram

    lp = LinearProgram(("q1",), (F(0),), ({0: F(1)},), (F(-1),))
    assert solve_float(lp).status == "infeasible"


def test_cross_check_disjoint_present():
    res = cross_check(disjoint_support_system(), "present")
    assert res.agree
    assert res.exact == 3


def test_cross_check_pr_box_cbd():
    assert cross_check(pr_box(), "cbd").agree


def test_cross_check_np_equals_np_inside_exact():
    for seed in (11, 12):
        sysd = random_system(SystemShape(2, 2, consistent=True, seed=seed))
        a = cross_check(sysd, "np")
        b = cross_check(sysd, "np_inside")
        assert a.agree and b.agree
        assert a.exact == b.exact


def test_run_selftest_passes():
    for name, passed, total in run_selftest(seed=99, count=6):
        assert passed == total, name


@pytest.mark.parametrize("kwargs", [dict(count=0), dict(count=-3)])
def test_run_selftest_rejects_bad_arguments(kwargs):
    with pytest.raises(ValidationError):
        run_selftest(**kwargs)


@pytest.mark.parametrize("args,kwargs", [((0, 1), {}), ((1, 0), {}),
                                         ((2, 2), dict(alphabet_size=1))])
def test_system_shape_rejects_bad_sizes(args, kwargs):
    with pytest.raises(ValidationError):
        SystemShape(*args, **kwargs)


def test_import_does_not_load_scipy():
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextuality; "
            "print(sorted(m for m in ('scipy', 'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_selftest_without_numpy_is_a_solver_error():
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; sys.modules['numpy'] = None; "
            "from contextuality.cli import main; "
            "sys.exit(main(['selftest', '--count', '1']))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 4
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and "numpy" in run.stderr
