"""Property tests (Hypothesis): random config values never crash the CLI,
a key the config key table lacks is one config error wherever it is put,
projections are idempotent and nonexpansive, the schedules move the way
the method needs, every iterate is feasible, the saddle operator is
strongly monotone with its zero at the analytic saddle, np.vecdot takes
each row's dot product exactly as np.dot takes it alone, the package's one
dot and one norm agree with np.dot and np.linalg.norm row by row, and a
batch's clock runs alike for all its active rows. Examples are
derandomized, so every run draws the same ones."""

import contextlib
import copy
import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from sipba import cli
from sipba.benchmarks import analytic_saddle, quadratic_testbed, synthetic_problem
from sipba.diagnostics import relative_error, relative_error_denominator
from sipba.problem import Ball, Box, _dot, _norm
from sipba.smoothing import PenaltyReg, operator_T
from sipba.solver import ScheduleParams, initial_state, params_at, run

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)

SYNTHETIC = {
    "problem": {"kind": "synthetic", "n": 2},
    "schedule": {"alpha0": 0.1, "beta0": 0.001, "rho0": 10.0, "sigma0": 0.01,
                 "p": 0.001, "q": 0.001, "s": 0.1},
    "run": {"max_iter": 3, "seeds": {"base": 0, "count": 1}, "stride": 1,
            "oracle_tol": 1e-6, "target_eps_rel": 0.5},
    "ablate": {"grid": [{"alpha0": 0.05}], "max_iter": 3},
    "compare": {"budget": 36, "inner_tol": 1e-4,
                "baseline_schedule": {"alpha0": 0.05}},
    "asymptotics": {"rho_list": [1e4], "sigma_list": [1e-4],
                    "oracle_tol": 1e-8},
}
HYPER_REP = dict(
    SYNTHETIC,
    problem={"kind": "hyper_rep", "n_feat": 2, "p_dim": 1, "m1": 3, "m2": 3,
             "m_test": 3, "noise_a": 0.1, "data_seed": 0},
    run={"max_iter": 3, "seeds": [0], "stride": 1})
# compare without a budget, and ablate without max_iter, read run.max_iter
# for their default
DEFAULTS = dict(SYNTHETIC, compare={"inner_tol": 1e-4},
                ablate={"grid": [{"alpha0": 0.05}]})
CASES = [("run", SYNTHETIC), ("run", HYPER_REP), ("ablate", SYNTHETIC),
         ("compare", SYNTHETIC), ("compare", DEFAULTS),
         ("gradcheck", SYNTHETIC), ("asymptotics", SYNTHETIC)]

# every JSON value: NaN, +-Infinity, extreme and ordinary numbers, strings,
# nested lists and objects, null; integers stay small so runs stay short
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
    | st.sampled_from([0.0, -0.5, 0.5, 1e-300, 1e300, -1e300, math.nan,
                       math.inf, -math.inf])
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4)


def call_main(cmd, cfg, tmp, out=True):
    """main on cfg: (exit code, config path, stderr); without out, the
    config's out_dir names the output directory."""
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    argv = [cmd, "--config", str(path)]
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv + ["--out", str(tmp / "out")] if out else argv)
    return code, str(path), err.getvalue()


def keys_read(cmd, cfg, tmp):
    """Every dotted key the config getter reads on a valid config."""
    seen, get = set(), cli._get

    def recording(d, key, *args, **kwargs):
        seen.add(key)
        return get(d, key, *args, **kwargs)

    with mock.patch.object(cli, "_get", recording):
        code, _, err = call_main(cmd, cfg, tmp)
    assert code == 0, err
    return sorted(seen)


COMMANDS = {"run": "R", "ablate": "A", "compare": "C", "gradcheck": "G",
            "asymptotics": "S"}  # as the README's config reference names them


def test_readme_read_by_column_is_what_each_command_reads(tmp_path):
    # every command on every config of CASES, valid for it or not (ablate
    # and asymptotics reject HYPER_REP, which has no target and no closed
    # form, after reading its keys), with the output directory from out_dir:
    # the commands that read a key
    from test_cli import readme_config_rows

    readers, get = {}, cli._get
    for cmd, letter in COMMANDS.items():
        def recording(d, key, *args):
            readers.setdefault(key, set()).add(letter)
            return get(d, key, *args)

        for cfg in (SYNTHETIC, HYPER_REP, DEFAULTS):
            cfg = dict(cfg, out_dir=str(tmp_path / "out"))
            with mock.patch.object(cli, "_get", recording):
                code, _, err = call_main(cmd, cfg, tmp_path, out=False)
            assert code == (1 if cfg["problem"]["kind"] == "hyper_rep"
                            and cmd in ("ablate", "asymptotics") else 0), err
    for keys, _, _, read_by in readme_config_rows():
        want = set(COMMANDS.values()) if read_by == "all" else set(
            read_by.split())
        for key in keys:
            assert readers.get(key) == want, (key, readers.get(key), read_by)


def set_key(cfg, key, value):
    *path, last = key.split(".")
    d = cfg
    for part in path:
        d = d[part]
        if isinstance(d, list):  # an ablate.grid row
            d = d[0]
    d[last] = value


@pytest.mark.parametrize("cmd, base", CASES,
                         ids=["run", "run-hyper-rep", "ablate", "compare",
                              "compare-default-budget", "gradcheck",
                              "asymptotics"])
def test_config_fuzz_exits_cleanly(tmp_path, cmd, base):
    keys = keys_read(cmd, base, tmp_path)
    assert "problem.kind" in keys

    @settings(FIXED, max_examples=100)
    @given(key=st.sampled_from(keys), value=JSON_VALUES)
    def check(key, value):
        cfg = copy.deepcopy(base)
        set_key(cfg, key, value)
        code, path, err = call_main(cmd, cfg, tmp_path)
        assert code in (0, 1, 2, 3)
        if code == 1:  # one line: cfg:N: message
            assert re.fullmatch(re.escape(path) + r":\d+: [^\n]+\n", err), err

    check()


def blocks(cfg, path=""):
    """The dotted path of every object in cfg whose keys the key table lists,
    "" for the top level (not ablate.grid rows or baseline_schedule)."""
    found = [path]
    for k, v in cfg.items():
        sub = path + "." + k if path else k
        if isinstance(v, dict) and any(key.startswith(sub + ".")
                                       for key in cli.CONFIG_KEYS):
            found += blocks(v, sub)
    return found


@pytest.mark.parametrize("cmd", ["run", "ablate", "compare", "gradcheck",
                                 "asymptotics"])
def test_unknown_key_in_any_block_is_one_config_error(tmp_path, cmd):
    where = blocks(SYNTHETIC)
    assert {"", "problem", "run.seeds", "asymptotics"} <= set(where)

    @settings(FIXED, max_examples=60)
    @given(block=st.sampled_from(where), key=st.text(max_size=6),
           value=JSON_VALUES)
    def check(block, key, value):
        dotted = block + "." + key if block else key
        assume("." in key or dotted not in cli.CONFIG_KEYS)
        cfg = copy.deepcopy(SYNTHETIC)
        d = cfg
        for part in filter(None, block.split(".")):
            d = d[part]
        d[key] = value
        code, path, err = call_main(cmd, cfg, tmp_path)
        assert code == 1
        assert re.fullmatch(r"%s:\d+: unknown %s key %s\n" % (
            re.escape(path), re.escape(block or "top-level"),
            re.escape(repr(key))), err), err

    check()


FINITE = st.floats(-1e3, 1e3)


@st.composite
def convex_sets(draw):
    n = draw(st.integers(1, 4))
    vec = st.lists(FINITE, min_size=n, max_size=n).map(np.array)
    flags = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    if draw(st.booleans()):
        return Ball(draw(vec), draw(st.floats(1e-3, 1e3)))
    a, b = draw(vec), draw(vec)
    lower, upper = np.minimum(a, b), np.maximum(a, b)
    lower[draw(flags)] = -np.inf  # infinite faces
    upper[draw(flags)] = np.inf
    return Box(lower, upper)


@FIXED
@given(data=st.data())
def test_projection_idempotent_and_nonexpansive(data):
    s = data.draw(convex_sets())
    vec = st.lists(FINITE, min_size=s.dim, max_size=s.dim).map(np.array)
    u, v = data.draw(vec), data.draw(vec)
    pu, pv = s.project(u), s.project(v)
    assert np.linalg.norm(s.project(pu) - pu) <= 1e-12 * (1 + np.abs(pu).max())
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9
    assert s.contains(pu, tol=1e-9)


SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0])


@FIXED
@given(data=st.data(), n=st.integers(1, 4), rows=st.integers(0, 3),
       open_side=st.sampled_from(["none", "lower", "upper", "both"]))
def test_a_one_sided_box_projects_as_the_two_sided_formula(data, n, rows,
                                                           open_side):
    # Box.project skips an upper side with no finite face and clips every
    # lower side, -inf faces too; neither may change a bit of the result,
    # whatever v holds, and it never hands out v itself
    vec = st.lists(FINITE | SPECIAL, min_size=n, max_size=n)
    flags = st.lists(st.booleans(), min_size=n, max_size=n).map(np.array)
    a, b = np.array(data.draw(vec)), np.array(data.draw(vec))
    with np.errstate(invalid="ignore"):
        lower, upper = np.fmin(a, b), np.fmax(a, b)
    lower[np.isnan(lower) | data.draw(flags)] = -np.inf  # mixed faces
    upper[np.isnan(upper) | data.draw(flags)] = np.inf
    if open_side in ("lower", "both"):
        lower[:] = -np.inf
    if open_side in ("upper", "both"):
        upper[:] = np.inf
    box = Box(lower, upper)
    v = np.array(data.draw(vec if rows == 0 else st.lists(
        vec, min_size=rows, max_size=rows)), dtype=float)
    got = box.project(v)
    want = np.minimum(np.maximum(v, box.lower), box.upper)
    assert got.shape == v.shape and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, v)


# the one value of a side whose faces all hold it, or 0.0 and -0.0 faces in
# turn, which are not one value
ONE_FACE = (st.sampled_from([0.0, -0.0, np.inf, -np.inf, "0.0 -0.0",
                             "-0.0 0.0"]) | FINITE)


@FIXED
@given(data=st.data(), n=st.integers(1, 4), rows=st.integers(0, 3),
       side=st.sampled_from(["lower", "upper", "both"]))
def test_a_box_side_of_one_value_projects_as_the_two_sided_formula(data, n,
                                                                   rows,
                                                                   side):
    # Box.project clips a side whose faces all hold one value against that
    # one value; that must change no bit of the result either, whatever the
    # other side and v hold, and never hand out v itself
    vec = st.lists(FINITE | SPECIAL, min_size=n, max_size=n)

    def one_face():
        face = data.draw(ONE_FACE)
        if isinstance(face, str):
            return np.resize(np.array(face.split(), dtype=float), n)
        return np.full(n, face)

    def any_face(nan_to):
        face = np.array(data.draw(vec))
        face[np.isnan(face)] = nan_to
        return face

    if side == "upper":
        upper = one_face()
        lower = np.minimum(any_face(-np.inf), upper)
    else:
        lower = one_face()
        upper = np.maximum(one_face() if side == "both" else any_face(np.inf),
                           lower)
    box = Box(lower, upper)
    v = np.array(data.draw(vec if rows == 0 else st.lists(
        vec, min_size=rows, max_size=rows)), dtype=float)
    got = box.project(v)
    want = np.minimum(np.maximum(v, box.lower), box.upper)
    assert got.shape == v.shape and got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, v)


POSITIVE = st.floats(1e-3, 1e3)


@FIXED
@given(alpha0=POSITIVE, beta0=POSITIVE, rho0=POSITIVE, sigma0=POSITIVE,
       p=st.floats(0, 0.99), q=st.floats(0, 0.99), s=st.floats(0, 0.49),
       k=st.integers(1, 10**15))
def test_params_at_monotone_in_k(alpha0, beta0, rho0, sigma0, p, q, s, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # exponents outside the regime
        sp = ScheduleParams(alpha0=alpha0, beta0=beta0, rho0=rho0,
                            sigma0=sigma0, p=p, q=q, s=s)
    now, nxt = params_at(sp, k), params_at(sp, k + 1)
    assert nxt.alpha <= now.alpha
    assert nxt.beta <= now.beta
    assert nxt.sigma <= now.sigma
    assert now.rho <= nxt.rho <= 1e12


@FIXED
@given(data=st.data(), n=st.integers(2, 6),
       alpha0=st.floats(1e-3, 10.0), beta0=st.floats(1e-5, 1e-3))
def test_every_emitted_iterate_is_feasible(data, n, alpha0, beta0):
    # starts inside or outside X = [0.1, 10]^n and Y = [1/(2 sqrt n), inf)^n
    sb = synthetic_problem(n)
    prob = sb.problem
    start = st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)
    init = initial_state(prob, data.draw(start), data.draw(start),
                         data.draw(start))
    sp = ScheduleParams(alpha0=alpha0, beta0=beta0, rho0=10.0, sigma0=0.01,
                        p=0.001, q=0.001, s=0.1)
    states = []
    run(prob, sp, [init], 30, callback=lambda _, s, t: states.append(s),
        callback_stride=1)
    assert len(states) == 30
    for s in states:
        assert prob.set_X.contains(s.x)
        assert prob.set_Y.contains(s.y)
        assert prob.set_Y.contains(s.z)


QUAD = quadratic_testbed()
COORD = st.floats(-1e3, 1e3)
PAIR = st.tuples(COORD, COORD).map(np.array)


@FIXED
@given(x=COORD, rho=st.floats(1e-3, 1e4), sigma=st.floats(1e-4, 1e2),
       u=PAIR, v=PAIR)
def test_quadratic_operator_strongly_monotone_with_analytic_zero(
        x, rho, sigma, u, v):
    pr = PenaltyReg(rho, sigma)
    xv = np.array([x])
    tu, tv = operator_T(QUAD, pr, xv, u), operator_T(QUAD, pr, xv, v)
    d = u - v
    # rounding allowance: 1e-12 of the magnitude of the terms of T
    lip = 2.0 + 2.0 * rho + 2.0 * sigma
    terms = lip * (abs(x) + np.abs(u).max() + np.abs(v).max())
    assert (np.dot(tu - tv, d)
            >= min(QUAD.mu, sigma) * np.dot(d, d)
            - 1e-12 * terms * np.linalg.norm(d))
    ys, zs = analytic_saddle(x, rho, sigma)
    saddle = np.concatenate((ys, zs))
    scale = lip * (abs(x) + np.abs(saddle).max())
    assert np.linalg.norm(operator_T(QUAD, pr, xv, saddle)) <= 1e-12 * scale


@FIXED
@given(n=st.integers(1, 500), rows=st.integers(1, 17),
       scales=st.lists(st.integers(-150, 150), min_size=17, max_size=17),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_vecdot_rows_equal_serial_dots_exactly(n, rows, scales, seed, data):
    # the batched step is bit-identical to serial steps only because of this:
    # a numpy or BLAS that sums a row of a block in another order than a
    # lone vector must fail here, not drift a trajectory
    # compared bit for bit: == would equate -0.0 and 0.0
    def same(a, b):
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    rng = np.random.default_rng(seed)
    mag = 10.0 ** np.array(scales[:rows])[:, None]
    x = rng.standard_normal((rows, n)) * mag
    y = rng.uniform(0.0, 10.0, (rows, n)) * mag[::-1]
    if n >= 2:  # a row of -0.0 entries: dot and vecdot both give 0.0
        x = np.vstack((x, np.full((1, n), -0.0)))
        y = np.vstack((y, np.full((1, n), -0.0)))
    e = np.ones(n)
    # a compacted block, as when rows leave a batch
    keep = data.draw(st.lists(st.integers(0, len(x) - 1), min_size=1,
                              unique=True))
    for xb, yb in ((x, y), (x[keep], y[keep])):
        xx, ey, xy = np.vecdot(xb, xb), np.vecdot(e, yb), np.vecdot(xb, yb)
        for i in range(len(xb)):
            assert same(xx[i], xb[i].dot(xb[i]))
            assert same(ey[i], np.dot(e, yb[i]))
            assert same(xy[i], np.dot(xb[i], yb[i]))
            assert same(np.vecdot(xb[i], xb[i]), xb[i].dot(xb[i]))
            # Ball.project's batched row norms, as np.linalg.norm takes them
            assert same(np.sqrt(xx[i]), np.linalg.norm(xb[i]))


@FIXED
@given(n=st.integers(1, 300), rows=st.integers(1, 9),
       scales=st.lists(st.integers(-150, 150), min_size=9, max_size=9),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_dot_and_norm_equal_numpy_on_a_vector_and_each_row(
        n, rows, scales, seed, data):
    # problem._dot and problem._norm are the package's one dot and one
    # norm: each row of a block, and the row alone, as np.dot and
    # np.linalg.norm take it, bit for bit, special entries included
    def same(a, b):
        return np.float64(a).tobytes() == np.float64(b).tobytes()

    rng = np.random.default_rng(seed)
    mag = 10.0 ** np.array(scales[:rows])[:, None]
    x = rng.standard_normal((rows, n)) * mag
    y = rng.standard_normal((rows, n)) * mag[::-1]
    special = st.sampled_from([-0.0, np.inf, -np.inf, np.nan])
    for a in (x, y):
        for i, j, v in data.draw(st.lists(st.tuples(
                st.integers(0, rows - 1), st.integers(0, n - 1), special),
                max_size=4)):
            a[i, j] = v
    x = np.vstack((x, np.full((1, n), -0.0)))
    y = np.vstack((y, np.full((1, n), -0.0)))
    with np.errstate(all="ignore"):
        norms, dots = _norm(x), _dot(x, y)
        for i in range(len(x)):
            assert same(norms[i], np.linalg.norm(x[i]))
            assert same(_norm(x[i]), np.linalg.norm(x[i]))
            # at n = 1 a row's lone -0.0 product is the exception below
            if n >= 2:
                assert same(dots[i], np.dot(x[i], y[i]))
            assert same(_dot(x[i], y[i]), np.dot(x[i], y[i]))


def test_vecdot_turns_a_lone_minus_zero_product_to_zero():
    # the exception to the rows above: at n = 1, np.dot returns a lone -0.0
    # product as it is, and np.vecdot returns 0.0 for a vector and a row
    # alike (no family meets it: the synthetic family needs n >= 2)
    one, neg = np.ones(1), np.array([-0.0])
    assert np.signbit(one.dot(neg)) and np.signbit(np.dot(neg, 2.0 * one))
    assert not np.signbit(np.vecdot(one, neg))
    assert not np.signbit(np.vecdot(one, neg[None])[0])


SMALL = synthetic_problem(10)


@settings(FIXED, max_examples=25)
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=6,
                      unique=True),
       alpha0=st.lists(st.sampled_from([0.1, 1.0, 5.0]), min_size=6,
                       max_size=6),
       eps=st.sampled_from([1e-1, 1e-2]))
def test_batch_clock_is_nondecreasing_in_target_iteration(seeds, alpha0, eps):
    # every active row is charged the same share of each batched step, so
    # a row that hits its target later has run at least as long: one
    # ablation table's times-to-target compare across its schedules
    starts = [initial_state(SMALL.problem, *SMALL.sample_init(
        np.random.Generator(np.random.Philox(s)))) for s in seeds]
    sps = [ScheduleParams(alpha0=a, beta0=0.01, rho0=10.0, sigma0=0.01,
                          p=0.001, q=0.001, s=0.1)
           for a in alpha0[:len(seeds)]]
    xs, ys = SMALL.x_star, SMALL.y_star
    den = relative_error_denominator(np.stack([s.x for s in starts]),
                                     np.stack([s.y for s in starts]), xs, ys)
    results = run(SMALL.problem, sps, starts, 1000, stop_at_target=True,
                  target=lambda rows, s: relative_error(
                      s.x, s.y, xs, ys, den[rows]) < eps)
    hits = sorted((r.target_iteration, r.target_seconds) for r in results)
    assert all(r.stop_reason == "target" for r in results)
    for (k0, t0), (k1, t1) in zip(hits, hits[1:]):
        assert t0 <= t1
        assert k0 < k1 or t0 == t1
