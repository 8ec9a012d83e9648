import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

import contextuality
from contextuality.analytic import delta0_cbd, delta0_present, max_coupling_probability
from contextuality.builders import build_lp, build_present_lp, measure
from contextuality.errors import (
    AlphabetMismatch,
    CertificationFailure,
    NumericalFailure,
    TooLarge,
    ValidationError,
)
from contextuality.examples import PM, disjoint_support_system, pr_box
from contextuality.lp import LinearProgram
from contextuality.oracle import (
    FloatSolution,
    SystemShape,
    brute_force_max_coupling,
    build_max_coupling_lp,
    cross_check,
    cyclic_system,
    noisy_pr_box,
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


def test_max_coupling_program_refuses_mismatched_marginals():
    # input errors, not size caps: the same refusals as max_coupling_probability
    one = Pmf([(0, 1)], {(0,): F(1)})
    with pytest.raises(AlphabetMismatch, match="need at least two marginals"):
        build_max_coupling_lp([one])
    with pytest.raises(AlphabetMismatch, match="alphabets differ"):
        build_max_coupling_lp([one, Pmf([(0, 2)], {(0,): F(1)})])


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


def test_cyclic_system_layout_and_noise():
    sysd = cyclic_system(5, 3, F(3, 4))
    assert sysd == cyclic_system(5, 3, "3/4")
    assert [c.properties for c in sysd.contexts] == [
        ("p0", "p1"), ("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p0")]
    assert not consistency_report(sysd).consistent
    white = cyclic_system(5, 3, F(1), noise="white")
    assert consistency_report(white).consistent
    assert white == cyclic_system(5, 4, F(1), noise="white")
    assert white.bunch("c0")[1, 1] == white.bunch("c4")[1, -1] == F(1, 2)


@pytest.mark.parametrize("args,kwargs", [
    ((1, 0, 1), {}), ((3, 0, -1), {}), ((3, 0, 2), {}), ((3, 0, 1), {"noise": "pink"}),
    ((3, 0, 0.5), {}),
])
def test_cyclic_system_rejects_bad_arguments(args, kwargs):
    with pytest.raises(ValidationError):
        cyclic_system(*args, **kwargs)


def test_noisy_pr_box_layout_and_noise():
    assert noisy_pr_box(2, 2, 0, F(1)) == pr_box()  # no noise left
    sysd = noisy_pr_box(2, 3, 5, F(3, 4))
    assert sysd == noisy_pr_box(2, 3, 5, "3/4")
    assert [c.id for c in sysd.contexts] == ["a1b1", "a1b2", "a1b3", "a2b1", "a2b2", "a2b3"]
    rng = random.Random(5)  # the noise is drawn in context order
    for c in sysd.contexts:
        sign = -1 if c.id == "a2b3" else 1
        noise = random_pmf(rng, [PM, PM])
        for x, y in itertools.product(PM, PM):
            want = (F(3, 8) if x * y == sign else 0) + noise[x, y] / 4
            assert sysd.bunch(c.id)[x, y] == want, (c.id, x, y)
    assert not hasattr(contextuality, "noisy_pr_box")


@pytest.mark.parametrize("args", [(0, 2, 0, 1), (2, 0, 0, 1), (2, 2, 0, -1), (2, 2, 0, "9/8")])
def test_noisy_pr_box_rejects_bad_arguments(args):
    with pytest.raises(ValidationError):
        noisy_pr_box(*args)


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


def test_solve_float_unbounded_and_failed_statuses(monkeypatch):
    assert solve_float(LinearProgram(("q1",), (F(-1),), (), ())) == \
        FloatSolution("unbounded", None, None)
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: SimpleNamespace(
        status=4, message="Numerical difficulties encountered."))
    with pytest.raises(NumericalFailure, match="^linprog failed: status 4 "):
        solve_float(build_present_lp(pr_box()))


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


def test_cross_check_agrees_on_contextual_cyclic_systems():
    # cross_check solves as measure() does: a repeated shape by dual simplex
    # from its template's start.  Every case here is contextual.
    cases = [(cyclic_system(4, seed, F(3, 4)), method)
             for seed in range(6) for method in ("present", "cbd", "np_inside")]
    cases.append((cyclic_system(4, 0, F(3, 4), noise="white"), "np"))
    for sysd, method in cases:
        assert measure(sysd, method).measure > 0, method
        assert cross_check(sysd, method).agree, method


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
                         capture_output=True, encoding="utf-8").stdout
    assert out.strip() == "[]"


def test_import_loads_the_oracle_on_first_use():
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, contextuality; print('contextuality.oracle' in sys.modules); "
            "from contextuality import random_system; "
            "print(random_system is sys.modules['contextuality.oracle'].random_system); "
            "print(contextuality.oracle.solve_float is contextuality.solve_float)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, encoding="utf-8").stdout
    assert out.split() == ["False", "True", "True"]
    star: dict = {}
    exec("from contextuality import *", star)
    assert {"oracle", "random_system", "run_selftest", "solve_float"} <= set(star)
    with pytest.raises(AttributeError):
        contextuality.no_such_name


def test_selftest_without_numpy_is_a_solver_error():
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; sys.modules['numpy'] = None; "
            "from contextuality.cli import main; "
            "sys.exit(main(['selftest', '--count', '1']))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, encoding="utf-8")
    assert run.returncode == 4
    assert "Traceback" not in run.stderr
    assert run.stderr.startswith("error: ") and "numpy" in run.stderr
    assert "install scipy" in run.stderr


# Runs each command in process and prints, as JSON, each one's exit code,
# stdout without its "seconds" lines and stderr, and which of numpy and scipy
# were loaded.  With "refuse" as its argument, neither can be imported.
_COMMANDS = r"""
import contextlib, io, json, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

if sys.argv[1:] == ["refuse"]:
    sys.meta_path.insert(0, Refuse())
from contextuality.cli import main

runs = []
for argv in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.lstrip().startswith(("seconds ", '"seconds"')))
    runs.append([argv, code, text, err.getvalue()])
loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def test_commands_run_without_numpy_and_scipy():
    src = str(Path(contextuality.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    every = "present,cbd,np,np_inside"
    commands = json.dumps([
        ["analyze", "bundled:prbox", "--method", every, "--witness"],
        ["analyze", "bundled:disjoint", "--method", every, "--json"],
        ["approx", "bundled:prbox", "--epr", "--json", "--witness"],
        ["approx", "bundled:prbox", "--epr", "--angles", "90,120;225,210"],
        ["approx", "bundled:prbox", "--model", "bundled:disjoint"],
        ["sizes", "3", "3"],
        ["sizes", "3", "3", "--json"],
        ["sizes", "0", "2"],
        ["dump-lp", "bundled:prbox", "--method", "np_inside"],
        ["dump-lp", "bundled:disjoint", "--method", "np"],
    ])
    runs = {}
    for mode in ("refuse", "allow"):
        run = subprocess.run([sys.executable, "-c", _COMMANDS, mode], input=commands, env=env,
                             capture_output=True, encoding="utf-8", check=True)
        runs[mode] = json.loads(run.stdout)
    assert runs["refuse"]["loaded"] == []
    assert runs["refuse"]["runs"] == runs["allow"]["runs"]
    assert [code for _, code, _, _ in runs["refuse"]["runs"]] == [0, 3, 0, 0, 3, 0, 0, 2, 0, 3]
