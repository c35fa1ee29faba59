"""Property test of the exit-code contract of ``lightcone``.

Whatever the command line and the files it names, ``main`` exits 0, 2, 3 or
4 with no traceback and no warning; a rejection from ``main`` is one stderr
line, and a manifest that is written validates and passes no non-finite
residual.  Grids stay at most 16x32, so no draw needs a large allocation.
"""

import contextlib
import io
import json
import tempfile
import warnings
from importlib.resources import files
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightcone.cli import main

SCHEMA = json.loads((files("lightcone") / "manifest_schema.json").read_text())

FLOAT_TEXT = st.one_of(
    st.sampled_from(["nan", "-inf", "inf", "1e-400", "-1.25e0", "1e-163", "1e200", "0",
                     "-0.0", "1.3", "7.5e-1", "1_000", "0x1p-3", "r"]),
    st.floats().map(repr),
    st.floats(0.01, 100.0).map("{:e}".format),
)


@st.composite
def unit_observer(draw):
    """A past unit timelike observer as text: rapidity in [0, 2], any direction."""
    rapidity = draw(st.floats(0.0, 2.0))
    n = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    norm = np.linalg.norm(n)
    n = n / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0])
    return [repr(float(c)) for c in (-np.cosh(rapidity), *(np.sinh(rapidity) * n))]


OBSERVERS = st.one_of(
    unit_observer(),
    st.lists(FLOAT_TEXT, min_size=4, max_size=4),
    st.sampled_from([["-1", "0", "0", "0"], ["-1.25e0", "0.75", "0", "0"],
                     ["-1.25", "0", "0", "-7.5e-1"]]),
)
GRIDS = st.one_of(
    st.sampled_from(["8x16", "12x24", "16x32"]),  # large enough for global's spectrum
    st.tuples(st.integers(0, 16), st.integers(0, 32)).map("{0[0]}x{0[1]}".format),
    st.sampled_from(["8x", "x16", "-1x4", "8x16x2", "8X16", "eightxsixteen", "", " 8x16",
                     "1.5x3"]),
)
# Malformed JSON shared by spec files and search configs: truncated, not
# UTF-8, nested past the parser's recursion limit, an integer past Python's
# digit limit.
MALFORMED = st.one_of(
    st.sampled_from([b"", b"[[2, 0, 0.1]", b"\xff\xfe[", b"[" * 3000, b"null", b"5",
                     b"[[2, 0, 1" + b"0" * 5000 + b"]]"]),
    st.binary(max_size=8),
    st.text(max_size=12).map(str.encode),
)
TERMS = st.lists(st.tuples(st.integers(0, 4), st.integers(-4, 4), st.floats(-0.05, 0.05)),
                 max_size=3)
SPECS = st.one_of(
    TERMS.map(json.dumps),
    TERMS.map(lambda terms: json.dumps(terms * 2)),  # every term duplicated
    st.sampled_from(["[]", "[[2, 0, 700]]", "[[2, 0, 1e300]]", "[[2, 0, 1e-300]]",
                     "[[2, 0, 0.4]]", '[[2, 0, "x"]]', "[[2.5, 0, 0.1]]", "[[true, 0, 0.1]]",
                     '{"a": 1}', "[[2, 0, NaN]]"]),
).map(str.encode) | MALFORMED
SMALL_CONFIG = st.fixed_dictionaries(
    {"degree_max": st.integers(2, 3), "n_starts": st.integers(1, 2),
     "n_theta": st.integers(1, 12), "n_phi": st.integers(1, 24), "max_iter": st.integers(1, 8)},
    optional={"n_restarts": st.integers(0, 1), "var_tol": st.floats(1e-12, 1e-2),
              "amplitude_bound": st.floats(1e-3, 0.5), "seed": st.integers(0, 5)},
)
BAD_VALUES = st.one_of(st.integers(-2, 3), st.floats(), st.booleans(), st.none(),
                       st.text(max_size=3), st.lists(st.integers(0, 3), max_size=2))
KEYS = st.sampled_from(["degree_max", "amplitude_bound", "n_theta", "n_phi", "n_starts",
                        "max_iter", "n_restarts", "var_tol", "seed", "radius", "nope"])
CONFIGS = st.one_of(
    SMALL_CONFIG.map(json.dumps),
    st.tuples(SMALL_CONFIG, KEYS, BAD_VALUES).map(lambda t: json.dumps({**t[0], t[1]: t[2]})),
    st.sampled_from(["[1, 2]", '"settings"', '{"degree_max": 2,,}']),
).map(str.encode) | MALFORMED


#: A search that takes a few hundredths of a second.
SMALL_SEARCH = b'{"degree_max": 2, "n_starts": 1, "n_theta": 8, "n_phi": 16, "max_iter": 5}'


@st.composite
def surfaces(draw):
    """The surface arguments of verify, global and export, and the spec file if any."""
    surface = draw(st.sampled_from(["round-sphere", "cylinder", "paraboloid", "perturbed",
                                    "torus"]))
    argv = [surface, "--grid", draw(GRIDS)]
    if surface in ("round-sphere", "perturbed") and draw(st.booleans()):
        argv += ["--r", draw(FLOAT_TEXT)]
    if surface == "round-sphere" and draw(st.booleans()):
        argv += ["--u", *draw(OBSERVERS)]
    # One draw in eight adds an option that the surface ignores: a spec for
    # the round sphere, an observer for any other surface.
    ignored = draw(st.integers(0, 7)) == 0
    if ignored and surface != "round-sphere":
        argv += ["--u", *draw(OBSERVERS)]
    if surface == "perturbed" or (surface == "round-sphere" and ignored):
        return argv, draw(SPECS)
    return argv, None


def _run(argv):
    """Exit code, whether main returned it, and stderr; any warning fails."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code, returned = main(argv), True
        except SystemExit as exc:
            code, returned = exc.code, False
    assert not caught, [str(w.message) for w in caught]
    return code, returned, err.getvalue()


# Each command draws its own examples; "bogus" is the unknown command.
@pytest.mark.parametrize("command", ["verify", "global", "export", "search", "bogus"])
@settings(max_examples=10)
@given(surface=surfaces(), config=CONFIGS)
# Escapes the test has found.  A radius whose square underflows to 0 divides
# by r^2 on the sigma route (ZeroDivisionError).
@example(surface=(["perturbed", "--r", "1e-163", "--grid", "8x16"], b"[[2,0,0.01]]"),
         config=SMALL_SEARCH)
# A spec or config nested past the parser's recursion limit (RecursionError),
# and a config that is not UTF-8 (UnicodeDecodeError) or has an integer past
# Python's digit limit (ValueError).
@example(surface=(["perturbed", "--grid", "4x8"], b"[" * 3000), config=b"[" * 3000)
@example(surface=(["perturbed", "--grid", "4x8"], b"\xff\xfe["), config=b"\xff\xfe[")
@example(surface=(["round-sphere", "--grid", "4x8"], None),
         config=b'{"n_starts": 1' + b"0" * 5000 + b"}")
# A computation on a sphere boosted off every axis, for each command.
@example(surface=(["round-sphere", "--grid", "8x16", "--u", "-1.255169005630943",
                   "0.3457945438180774", "-0.4322431797725968", "0.5186918157271161"], None),
         config=SMALL_SEARCH)
def test_exit_code_contract(command, surface, config):
    argv, spec = surface
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = tmp / "manifest.json"
        if command == "search":
            (tmp / "config.json").write_bytes(config)
            argv = ["search", "--config", str(tmp / "config.json"),
                    "--out", str(tmp / "report.json"), "--manifest", str(manifest)]
        else:
            argv = [command, *argv, "--out", str(manifest)]
            if spec is not None:
                (tmp / "spec.json").write_bytes(spec)
                argv += ["--spec", str(tmp / "spec.json")]
        code, returned, err = _run(argv)
        assert code in (0, 2, 3, 4), (code, err)
        assert "Traceback" not in err and "Warning" not in err, err
        if returned and code in (3, 4):
            assert len(err.splitlines()) == 1, err
        if code in (0, 2) and command != "export":
            data = json.loads(manifest.read_text())
            jsonschema.validate(data, SCHEMA)
            for check in data["checks"]:
                if check["status"] == "PASS" and check["residual"] is not None:
                    assert np.isfinite(check["residual"]), check
