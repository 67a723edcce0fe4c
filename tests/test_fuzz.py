"""Fuzzing the command-line boundary: mutated table JSON, arbitrary SNR
grids and arbitrary config files must end in exit code 0, 2, 3 or 4, with a
JSON reason on stderr for every failure, and never in a Python traceback."""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from ccsched.cli import main
from ccsched.model import table_to_json
from ccsched.symmetric import schedule_symmetric

# the frozen Example 1 table: 10 columns of 7 groups over 5 users
SEED_DOC = json.loads((Path(__file__).parent / "data" / "example1_dof14.json").read_text())
KEYS = list(SEED_DOC)

# small values only: a field such as omega or t sizes the group enumeration
small_ints = st.integers(-3, 12)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
groups = st.lists(small_ints, max_size=4) | json_values


@st.composite
def mutated_docs(draw):
    """The seed table with a few fields, users, groups or columns changed."""
    doc = json.loads(json.dumps(SEED_DOC))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "drop", "users", "group", "column"]))
        if kind == "field":
            doc[draw(st.sampled_from(KEYS))] = draw(small_ints | json_values)
        elif kind == "drop":
            doc.pop(draw(st.sampled_from(KEYS)), None)
        elif kind == "users":
            doc["users"] = draw(st.lists(small_ints, max_size=8))
        elif isinstance(doc.get("columns"), list) and doc["columns"]:
            columns = doc["columns"]
            idx = draw(st.integers(0, len(columns) - 1))
            if kind == "column":
                columns[idx] = draw(st.lists(groups, max_size=8) | json_values)
            elif isinstance(columns[idx], list) and columns[idx]:
                pos = draw(st.integers(0, len(columns[idx]) - 1))
                columns[idx][pos] = draw(groups)
    return doc


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 2, 3, 4)
    if code != 0:
        error = json.loads(err.strip().splitlines()[-1])["error"]
        assert error["type"] and error["reason"]
    assert "Traceback" not in err


@given(mutated_docs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_mutated_table_json(doc, truncate):
    text = json.dumps(doc)
    if truncate:
        text = text[: len(text) // 2]
    with tempfile.TemporaryDirectory() as tmp:
        table = Path(tmp) / "table.json"
        table.write_text(text)
        for argv in (
            ["verify", "--table", str(table)],
            ["verify", "--table", str(table), "--numeric", "--trials", "1"],
            ["rate-sweep", "--table", str(table), "--snr", "0,20", "--trials", "1"],
        ):
            code, _, err = run_main(argv)
            assert_clean_exit(code, err)


@given(st.text(max_size=20) | st.lists(st.sampled_from(
    ["0", "5", "-3", "1e3", "1e400", "nan", "inf", "-inf", "0.5", "abc", "", " "]
), max_size=4).flatmap(lambda parts: st.sampled_from([":".join(parts), ",".join(parts)]))
)
@settings(max_examples=150, deadline=None)
def test_arbitrary_snr_grid(snr):
    table = str(Path(__file__).parent / "data" / "example1_dof14.json")
    code, out, err = run_main(["rate-sweep", "--table", table, f"--snr={snr}", "--trials", "1"])
    assert_clean_exit(code, err)
    if code == 0:
        assert out.startswith("snr_db,")


# every flag of the four commands, a spelling with a hyphen, and unknown keys
CONFIG_KEYS = [
    "L", "G", "t", "omega", "delta_max", "delta-max", "seed", "mode", "beta", "m", "tau",
    "imax", "output", "table", "numeric", "trials", "tol", "snr", "witness_dir", "config",
    "case", "bogus",
]
# no digit in any script and no path separator: a value can neither size a
# construction nor name a file outside the working directory
words = st.text(st.characters(blacklist_categories=("Cs", "Nd"), blacklist_characters="/\\"), max_size=8)
config_values = small_ints.map(str) | words | st.sampled_from(
    ["true", "False", "sym", "asym", "-", "nan", "inf", "-1e-9", "1e-6", "0:5:35", "0,20", '"7"', "'x'", "a\0b"]
)
config_lines = st.one_of(
    st.tuples(st.sampled_from(CONFIG_KEYS) | words, st.sampled_from([" = ", "=", " : "]), config_values)
    .map("".join),
    words,
    st.just("# a comment"),
)
# a 3-column symmetric table: a config may leave the draw counts at their
# defaults (100 and 200 trials), which the Example 1 table makes slow
SMALL_TABLE = table_to_json(schedule_symmetric(11, 8, 1, 4, 1))
COMMANDS = (
    ["schedule", "--L", "10", "--G", "3", "--t", "1", "--omega", "5"],
    ["verify", "--table", "small.json"],
    ["dof-region", "--L", "11", "--G", "8", "--t", "1", "--omega", "4"],
    ["rate-sweep", "--table", "small.json"],
)


@given(st.lists(config_lines, max_size=6), st.binary(max_size=4))
@example(["output = a\0b", "witness_dir = a\0b"], b"")
@example(["seed = 1"], b"\xff")
@settings(max_examples=100, deadline=None)
def test_arbitrary_config_file(lines, tail):
    """A config file of key = value lines (and some that are not), perhaps
    ending in bytes that are not UTF-8; relative output paths stay in a
    scratch working directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "small.json").write_text(SMALL_TABLE)
        config = Path(tmp) / "run.cfg"
        config.write_bytes("\n".join(lines).encode() + b"\n" + tail)
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                code, _, err = run_main(command + ["--config", str(config)])
                assert_clean_exit(code, err)
        finally:
            os.chdir(cwd)
