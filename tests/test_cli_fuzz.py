"""Fuzz of the CLI's input contract.

Whatever the config text or the argv, ``rectoamp`` exits 0, 1 or 2 without
a traceback, and a non-zero exit prints exactly one line with ``error:``.
Config texts mix the key grammar with junk keys, junk values, nan, inf,
negative numbers and paths, at M, N <= 40, at most 3 seeds and at most 3
iterations, and every output path lies under a temporary directory.
"""

import contextlib
import io
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from rectoamp import cli

JUNK = ["nan", "inf", "-inf", "-1", "-0.5", "abc", "", "1e400", "1,2", "0x10",
        "/dev/null", "../x"]
JUNK_KEYS = ["bogus", "delta", "validate", "noise", "M N", "out_dir", ""]


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _or_junk(draw, strategy):
    """A value of ``strategy``, or one time in eight a junk value."""
    return draw(st.sampled_from(JUNK) if draw(st.integers(0, 7)) == 0 else strategy)


def _values(workdir):
    """Per key, a strategy for its value text, mostly in range."""
    out = st.sampled_from([f"{workdir}/run", f"{workdir}/sub/run",
                           f"{workdir}/file/run"])
    seed_list = st.lists(st.integers(-1, 9), min_size=1, max_size=3).map(
        lambda s: ", ".join(map(str, s)))
    methods = st.lists(st.sampled_from(["oamp", "amp", "pca", "se-only", "ridge"]),
                       min_size=0, max_size=3).map(",".join)
    return {
        "theta": _floats(0.0, 4.0), "M": st.integers(-1, 40).map(str),
        "N": st.integers(-1, 40).map(str), "spectrum": st.sampled_from(["mp", "beta"]),
        "beta_a": _floats(0.0, 3.0), "beta_b": _floats(0.0, 3.0),
        "beta_lo": _floats(-1.0, 3.0), "beta_hi": _floats(0.0, 4.0),
        "prior_u": st.sampled_from(["rademacher", "gaussian", "bernoulli"]),
        "prior_v": st.sampled_from(["rademacher", "gaussian"]),
        "w0_u": _floats(0.0, 1.0), "w0_v": _floats(0.0, 1.0),
        "iters": st.integers(-1, 3).map(str),
        "seeds": st.integers(0, 3).map(str) | seed_list,
        "methods": methods, "out": out,
    }


@st.composite
def config_texts(draw, workdir):
    values = _values(workdir)
    keys = draw(st.lists(st.sampled_from(sorted(values)), unique=True, max_size=8))
    # out is never junk, so that every output stays under workdir
    lines = [f"{k} = {draw(values[k]) if k == 'out' else _or_junk(draw, values[k])}"
             for k in keys]
    # every config is small, whatever else it says
    for key, strategy in (("M", st.integers(1, 20)), ("N", st.integers(20, 40)),
                          ("iters", st.integers(1, 3)), ("seeds", st.integers(1, 3))):
        if key not in keys:
            lines.append(f"{key} = {draw(strategy)}")
    if "out" not in keys:
        lines.append(f"out = {workdir}/run")
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(
            [f"{k} = 1" for k in JUNK_KEYS] + ["no equals sign", "# comment"])))
    return "\n".join(draw(st.permutations(lines))) + "\n"


# flag -> value strategy, per subcommand
_DELTA = st.sampled_from(["0.5", "1", "0.3", "0.25", "2", "0", "-1"])
_FLAGS = {
    "--theta": _floats(0.0, 4.0), "--delta": _DELTA,
    "--spectrum": st.sampled_from(["mp", "beta", "gauss"]),
    "--beta-a": _floats(0.0, 3.0), "--beta-b": _floats(0.0, 3.0),
    "--beta-lo": _floats(-1.0, 3.0), "--beta-hi": _floats(0.0, 4.0),
    "--prior": st.sampled_from(["rademacher", "gaussian", "bernoulli"]),
    "--w0": _floats(0.0, 1.0), "--iters": st.integers(-1, 3).map(str),
}
SUBCOMMANDS = {
    "se": ["--theta", "--delta", "--spectrum", "--beta-a", "--beta-b", "--beta-lo",
           "--beta-hi", "--prior", "--w0", "--iters"],
    "spectra-check": ["--theta", "--delta", "--spectrum", "--beta-a", "--beta-b",
                      "--beta-lo", "--beta-hi"],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = draw(st.lists(st.sampled_from(SUBCOMMANDS[command]), unique=True))
    # --theta is required by se; --iters keeps se short
    flags += [f for f in ("--theta", "--iters")
              if f in SUBCOMMANDS[command] and f not in flags]
    argv = [command]
    for flag in flags:
        value = _FLAGS[flag]
        if flag == "--iters":
            value = st.integers(1, 3).map(str) | value
        argv += [flag, _or_junk(draw, value)]
    if draw(st.integers(0, 15)) == 0:
        argv += ["--bogus", "1"]
    return argv


def check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    # the contract is that of the `rectoamp` process, which prints a numpy
    # RuntimeWarning and goes on, where this suite's filter would raise it
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("default")
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err
    if code != 0:
        assert sum("error:" in line for line in err.splitlines()) == 1, (argv, err)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_run_config_contract(tmp_path_factory, data):
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "file").write_text("")
    text = data.draw(config_texts(workdir))
    path = workdir / "fuzz.cfg"
    path.write_text(text)
    check_contract(["run", str(path)])


@settings(max_examples=120, deadline=None)
@given(argv=argvs())
def test_subcommand_argv_contract(argv):
    check_contract(argv)
