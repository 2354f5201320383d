"""Hostile inputs through the command line.

A grammar of hostile values builds model files, policy specs and flags, and
every command must keep its exit-code contract: 0 with a parseable report,
or 1, 2 or 3 with the matching prefix on stderr, and never a traceback.
Each example starts from a valid model and makes a drawn share of its fields
hostile, so both the rejections and the computations behind them are
reached.  The grammar keeps every run small (at most 4 head states,
offspring counts up to 10**4, at most 30 trajectories of at most 300 jumps),
so the examples run in process.  The inputs that would need gigabytes if
validation let them through run once, in one child process under an
address-space limit.
"""

import contextlib
import io
import json
import math
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from cbpopt.cli import main
from conftest import fresh_env

PREFIX = {1: "model error: ", 2: "numerical failure: ", 3: "usage error: "}


class Obj:
    """A JSON object as its list of (key, value) pairs, which may repeat a key."""

    def __init__(self, pairs):
        self.pairs = list(pairs)

    def __repr__(self):
        return f"Obj({self.pairs!r})"


class Nest:
    """``core`` inside ``depth`` lists, written out only as JSON text, so
    that a failing example prints short."""

    def __init__(self, depth, core):
        self.depth, self.core = depth, core

    def __repr__(self):
        return f"Nest({self.depth}, {self.core!r})"


def to_json(value) -> str:
    """JSON text of ``value``; NaN and the infinities as Python's json reads them."""
    if isinstance(value, Obj):
        return "{" + ",".join(f"{to_json(k)}:{to_json(v)}" for k, v in value.pairs) + "}"
    if isinstance(value, Nest):
        return "[" * value.depth + to_json(value.core) + "]" * value.depth
    if isinstance(value, list):
        return "[" + ",".join(map(to_json, value)) + "]"
    return json.dumps(value)


# Values that are wrong in some field: zero, subnormal, huge and non-finite
# numbers, negatives, bools, strings, null, empty containers and deep nests.
HOSTILE = st.one_of(
    st.sampled_from(
        [
            0, 0.0, -0.0, 5e-324, 2.2e-308, 1e-300, 1e300, 1.7976931348623157e308, 10**400,
            math.nan, math.inf, -math.inf, -1, -1e-300, True, False, None, "1", "", [], Obj([]),
        ]
    ),
    st.builds(Nest, st.sampled_from([1, 50, 900, 5000]), st.sampled_from([1, "a", None])),
)
RATES = st.one_of(
    st.sampled_from([0.5, 1, 2.0, 3]), st.floats(5e-324, 1e300), st.integers(1, 10**30)
)
# Offspring counts up to 10**4 as JSON keys, and keys that are not counts:
# the derived k = 1, counts past the bound and non-canonical spellings.
COUNTS = st.one_of(st.sampled_from(["2", "3"]), st.integers(2, 10**4).map(str))
BAD_KEYS = st.sampled_from(
    ["1", "-1", "02", " 2", "2.0", "1e3", "+2", "true", "", "10000000", "10000001", "x"]
)
# m and other counts that are not a small positive integer.
BAD_COUNTS = st.sampled_from([0, -1, True, False, 1.0, 2.5, "1", None, [1], math.nan, 10**400])
IDS = st.sampled_from(["a", "b", "c"])
BAD_IDS = st.sampled_from(["", "d", 1, True, None, ["a"], Obj([])])
BAD_ID_LISTS = st.lists(IDS | BAD_IDS, max_size=3) | HOSTILE


def hostile_share(draw):
    """Two helpers over one example's ``draw``: ``pick(good, bad)``, a draw
    from ``good`` or now and then from ``bad``; and ``obj(pairs)``, an
    object of ``pairs``, now and then with a key repeated or dropped.  The
    share of hostile fields varies by example, and is zero in some."""
    share = draw(st.sampled_from([0, 0, 0, 5, 20, 60]))

    def pick(good, bad=HOSTILE):
        if draw(st.integers(0, 99)) >= share:
            return draw(good)
        return draw(bad)

    def obj(pairs):
        if pairs and draw(st.integers(0, 99)) < share:
            pos = draw(st.integers(0, len(pairs) - 1))
            if draw(st.booleans()):
                pairs = [*pairs, (pairs[pos][0], pick(st.just(pairs[pos][1])))]
            else:
                pairs = pairs[:pos] + pairs[pos + 1 :]
        return Obj(pairs)

    return pick, obj


@st.composite
def cbp_docs(draw):
    pick, obj = hostile_share(draw)
    m = pick(st.integers(1, 4), BAD_COUNTS | HOSTILE)
    head = m if type(m) is int and 1 <= m <= 4 else 2
    names = draw(st.lists(IDS, min_size=1, max_size=3, unique=True))
    actions = []
    for aid in names:
        counts = draw(st.lists(COUNTS, min_size=1, max_size=3, unique=True))
        rates = [(pick(st.just(k), BAD_KEYS), pick(RATES)) for k in ["0", *counts]]
        actions.append(obj([("id", pick(st.just(aid), BAD_IDS | HOSTILE)), ("b", obj(rates))]))
    ids = st.lists(st.sampled_from(names), min_size=1, max_size=3)
    admissible = [
        (pick(st.just(str(i)), BAD_KEYS), pick(ids, BAD_ID_LISTS)) for i in range(1, head + 1)
    ]
    body = [
        ("m", m),
        ("actions", pick(st.just(actions))),
        ("admissible", obj(admissible)),
        ("tail", pick(ids, BAD_ID_LISTS)),
    ]
    return obj([("kind", pick(st.just("cbp"))), ("cbp", obj(body))])


@st.composite
def general_docs(draw):
    pick, obj = hostile_share(draw)
    bad_keys = st.sampled_from(["01", "x", "1.0", " 1", ""])
    rates = []
    for state in ("1", "2"):
        per_action = []
        for aid in draw(st.lists(IDS, min_size=1, max_size=2, unique=True)):
            others = [j for j in ("0", "1", "2", "d") if j != state]
            keys = draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True))
            row = [(pick(st.just(j), bad_keys), pick(RATES)) for j in keys]
            per_action.append((pick(st.just(aid), st.sampled_from(["", "a "])), obj(row)))
        rates.append((pick(st.just(state), bad_keys), obj(per_action)))
    states = st.lists(st.sampled_from([0, 1, 2, "d"]) | HOSTILE, max_size=5) | HOSTILE
    body = [
        ("states", pick(st.just([0, 1, 2, "d"]), states)),
        ("target", pick(st.just([0]), st.lists(st.sampled_from([0, 1, "d", "x"]), max_size=2))),
        ("cemetery", pick(st.just("d"), st.sampled_from([None, 0, "x", 2.0]) | HOSTILE)),
        ("rates", obj(rates)),
    ]
    return obj([("kind", pick(st.just("general"))), ("general", obj(body))])


DOCUMENTS = st.one_of(cbp_docs(), cbp_docs(), general_docs(), HOSTILE)

SPECS = st.lists(
    st.tuples(
        st.sampled_from(["1", "2", "4", "0", "-1", "01", " 1", "x", "", "1.0", "9" * 20]),
        st.sampled_from([":", ":", "::", "", ": "]),
        st.sampled_from(["a", "b", "a", "b", "c", "", " a", "a:b"]),
    ).map("".join),
    max_size=3,
).map(",".join)
SMALL = st.sampled_from(["1", "3", "50", "0", "-1", "x", "", "1e3", "2.0"])
# --n and --max-jumps are always given and stay small, so that every
# simulation is cheap.
TRAJECTORIES = st.sampled_from(["1", "30", "0"])
JUMPS = st.sampled_from(["0", "30", "300"])
OPTIONS = {
    "rho": {},
    "solve": {"--start-policy": SPECS, "--trace": None},
    "evaluate": {"--policy": SPECS},
    "simulate": {
        "--policy": SPECS,
        "--start": SMALL | st.just("9" * 20),
        "--max-pop": SMALL | st.just("1000000"),
        "--seed": SMALL | st.sampled_from([str(2**64 - 1), str(2**64)]),
    },
    "general": {},
    "brute": {"--cap": SMALL | st.just("100000")},
}


@st.composite
def argvs(draw, path):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, path]
    options = OPTIONS[command]
    for flag in draw(st.lists(st.sampled_from([*options, "--json"]), max_size=4)):
        argv.append(flag)
        if options.get(flag) is not None:
            argv.append(draw(options[flag]))
    if command == "simulate":
        argv += ["--n", draw(TRAJECTORIES), "--max-jumps", draw(JUMPS)]
    if draw(st.sampled_from([False] * 9 + [True])):  # a stray token, now and then
        stray = draw(st.sampled_from(["--bogus", "-x", "--", "extra"]))
        argv.insert(draw(st.integers(0, len(argv))), stray)
    return argv


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv, code, out, err):
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        if "--json" in argv:
            json.loads(out)
        else:
            assert out.strip()
    else:
        assert code in PREFIX, code
        assert err.startswith(PREFIX[code]) and err.endswith("\n"), err
        assert out == ""


@given(st.data(), DOCUMENTS)
@settings(max_examples=300, deadline=None)
def test_hostile_inputs_keep_the_exit_code_contract(tmp_path_factory, data, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    path.write_text(to_json(doc))
    argv = data.draw(argvs(str(path)))
    assert_contract(argv, *run(argv))


# An offspring count of 10**9 would make root finding allocate 8 GB, and a
# head of 10**9 states a row per state, if validation let either through; so
# they run in one child process whose address space is capped at 1 GiB.
HEAVY = r"""
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from cbpopt.cli import main
bodies = [
    {"m": 1, "actions": [{"id": "a", "b": {"0": 1, "1000000000": 1}}]},
    {"m": 10**9, "actions": [{"id": "a", "b": {"0": 1, "2": 1}}]},
]
results = []
for pos, body in enumerate(bodies):
    path = f"{sys.argv[1]}/{pos}.json"
    body.update(admissible={"1": ["a"]}, tail=["a"])
    with open(path, "w") as handle:
        json.dump({"kind": "cbp", "cbp": body}, handle)
    for command in ("rho", "solve", "evaluate", "brute", "general", "simulate"):
        argv = [command, path, "--json", *(["--n", "30"] if command == "simulate" else [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        results.append([argv, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def test_memory_heavy_inputs_are_rejected_under_an_address_space_limit(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", HEAVY, str(tmp_path)],
        capture_output=True,
        text=True,
        env=fresh_env(),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = json.loads(done.stdout)
    assert len(results) == 12
    for argv, code, out, err in results:
        assert_contract(argv, code, out, err)
        assert code == 1, (argv, err)
