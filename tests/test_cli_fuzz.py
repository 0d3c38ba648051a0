"""Random documents through the whole command line entry point.

Whatever a spectrum or analyze input file holds, `main()` returns an
exit code from 0 to 3 without raising and says at most one line on
stderr.  A numpy RuntimeWarning is turned into an error here: run from
the shell it would print lines ahead of the message.
"""

import contextlib
import io
import itertools
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympref.cli import main
from sympref.cyclotomic import euler_phi

BIG = 10 ** 400

FINITE = st.one_of(st.integers(-3, 3), st.floats(-1e308, 1e308))
NUMBERS = st.one_of(st.integers(-BIG, BIG), FINITE)
SCALARS = st.one_of(NUMBERS, st.text(max_size=4), st.none())
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["theta", "metric", "x"]), inner, max_size=3
        ),
    ),
    max_leaves=16,
)


@st.composite
def square(draw, entries, shape="any", sizes=(0, 1, 2, 3, 4)):
    """An n x n list of entries; "antisymmetric" and "diagonal" shapes
    pass the symmetry checks and reach the linear algebra."""
    n = draw(st.sampled_from(sizes))
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if shape == "antisymmetric":
                rows[i][j] = -rows[j][i] if i != j else 0
            elif shape == "diagonal" and i != j:
                rows[i][j] = rows[j][i] = 0
    return rows


MATRICES = st.one_of(JSON, square(SCALARS), square(NUMBERS))
SPECTRUM_DOCS = st.one_of(
    JSON,
    st.fixed_dictionaries({"theta": MATRICES}, optional={"metric": MATRICES}),
    st.fixed_dictionaries(
        {"theta": square(FINITE, "antisymmetric", (2, 4))},
        optional={
            "metric": st.one_of(
                square(st.floats(0, 1e308), "diagonal", (2, 4)),
                square(FINITE, sizes=(2, 4)),
            )
        },
    ),
)

CONDUCTORS = (1, 2, 3, 4, 6, 8, 12)
# zeta_d and its inverse in the power basis of Q(zeta_d)
ROOTS = {3: ([0, 1], [-1, -1]), 4: ([0, 1], [0, -1]), 6: ([0, 1], [1, -1]),
         8: ([0, 1, 0, 0], [0, 0, 0, -1])}


@st.composite
def analyze_docs(draw):
    # even dimensions and the standard form weigh more: they reach closure
    n = draw(st.sampled_from((1, 2, 2, 3, 4, 4)))
    conductor = draw(st.sampled_from(CONDUCTORS))
    divisors = [d for d in CONDUCTORS if conductor % d == 0]
    small = st.integers(-2, 2)

    @st.composite
    def cyclotomic(draw):
        d = draw(st.sampled_from(divisors))
        return {"conductor": d, "coeffs": [draw(small) for _ in range(euler_phi(d))]}

    @st.composite
    def symplectic(draw):
        # block diagonal in the planes of the standard form: finite
        # and infinite order, at this conductor or a divisor of it
        blocks = [
            [[-1, 0], [0, -1]], [[0, 1], [-1, 0]], [[0, -1], [1, -1]],
            [[1, draw(small)], [0, 1]],
        ]
        for d in set(divisors) & set(ROOTS):
            root, inverse = ({"conductor": d, "coeffs": c} for c in ROOTS[d])
            blocks.append([[root, 0], [0, inverse]])
        rows = [[0] * n for _ in range(n)]
        for k in range(0, n - 1, 2):
            block = draw(st.sampled_from(blocks))
            for i in range(2):
                rows[k + i][k:k + 2] = block[i]
        return rows

    entries = st.one_of(
        small,
        st.integers(-BIG, BIG),
        st.builds("%d/%d".__mod__, st.tuples(small, st.integers(1, 3))),
        cyclotomic(),
    )
    matrix = st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    )
    form = draw(st.sampled_from(("standard", "standard", "standard", None)))
    return {
        "name": "fuzz",
        "dimension": n,
        "conductor": conductor,
        "symplectic_form": form or draw(matrix),
        "generators": draw(
            st.lists(st.one_of(symplectic(), symplectic(), matrix), max_size=3)
        ),
    }


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_NUMBERING = itertools.count()


def run_main(command, doc, input_dir, *options):
    # a fresh file each time: on some filesystems truncating a file
    # costs more than the command it feeds
    path = input_dir / ("%d.json" % next(_NUMBERING))
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(err):
                code = main([command, *options, str(path)])
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1, err.getvalue()


@settings(max_examples=120, derandomize=True, deadline=None)
@given(doc=SPECTRUM_DOCS)
def test_spectrum_on_any_json_is_an_exit_code(input_dir, doc):
    run_main("spectrum", doc, input_dir)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(doc=analyze_docs())
def test_analyze_on_a_small_spec_is_an_exit_code(input_dir, doc):
    run_main("analyze", doc, input_dir, "--max-order", "64")
