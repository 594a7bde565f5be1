import hashlib
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from pinwheel import faces
from pinwheel.cli import main

CHAIN_JSON = '{"r":3,"n":4,"sets":[[3],[2,3,4]],"decoration":{"2":1,"3":0,"4":2}}'
MATRIX_JSON = json.dumps(
    {
        "r": 3,
        "n": 4,
        "cols": [
            {"col": 1, "row": 4, "exp": 0},
            {"col": 2, "row": 1, "exp": 2},
            {"col": 3, "row": 3, "exp": 2},
            {"col": 4, "row": 2, "exp": 1},
        ],
    }
)
VERTEX_JSON = json.dumps({"coords": [{"mag": [str(i), "1"], "branch": 0} for i in (1, 2, 3, 4)]})
# The length-0 chain at (2, 3): its face has all 48 vertices, its coset all
# 48 elements.
EMPTY_CHAIN_JSON = '{"r":2,"n":3,"sets":[],"decoration":{}}'
MATRIX_R2N3_JSON = json.dumps(
    {
        "r": 2,
        "n": 3,
        "cols": [
            {"col": 1, "row": 3, "exp": 1},
            {"col": 2, "row": 1, "exp": 0},
            {"col": 3, "row": 2, "exp": 1},
        ],
    }
)
# The length-0 chain at (3, 4): 1944 face vertices and coset elements.
EMPTY_CHAIN_R3N4_JSON = '{"r":3,"n":4,"sets":[],"decoration":{}}'
# An n = 1 chain, whose face vertices take `faces._face_shape`'s fallback
# for fewer than two coordinates.
CHAIN_R3N1_JSON = '{"r":3,"n":1,"sets":[[1]],"decoration":{"1":2}}'
# The length-0 chain at (2, 8): its face has 10,321,920 vertices, and `act`
# prints the image chain without listing any of them.
EMPTY_CHAIN_R2N8_JSON = '{"r":2,"n":8,"sets":[],"decoration":{}}'
MATRIX_R2N8_JSON = json.dumps(
    {
        "r": 2,
        "n": 8,
        "cols": [{"col": j, "row": j % 8 + 1, "exp": j % 2} for j in range(1, 9)],
    }
)
# The identity's maximal chain {4} < {3, 4} < {2, 3, 4} < {1..4} at (3, 4).
IDENTITY_CHAIN_JSON = json.dumps(
    {"r": 3, "n": 4, "sets": [[4], [3, 4], [2, 3, 4], [1, 2, 3, 4]], "decoration": {"1": 0, "2": 0, "3": 0, "4": 0}}
)
# The smallest inputs: the second file a command needs when it reads a
# malformed or fuzzed one.
CHAIN_R2N1_JSON = '{"r":2,"n":1,"sets":[[1]],"decoration":{"1":1}}'
MATRIX_R2N1_JSON = '{"r":2,"n":1,"cols":[{"col":1,"row":1,"exp":0}]}'
# A vertex that fits MATRIX_R2N1: the malformed-vertex cases corrupt it, so
# a value the loader wrongly accepts acts cleanly and the case fails.
VERTEX_R2N1_JSON = json.dumps({"coords": [{"mag": ["2", "1"], "branch": 0}]})
FILES = {
    "CHAIN": CHAIN_JSON,
    "MATRIX": MATRIX_JSON,
    "VERTEX": VERTEX_JSON,
    "EMPTY_CHAIN": EMPTY_CHAIN_JSON,
    "MATRIX_R2N3": MATRIX_R2N3_JSON,
    "EMPTY_CHAIN_R3N4": EMPTY_CHAIN_R3N4_JSON,
    "CHAIN_R3N1": CHAIN_R3N1_JSON,
    "EMPTY_CHAIN_R2N8": EMPTY_CHAIN_R2N8_JSON,
    "MATRIX_R2N8": MATRIX_R2N8_JSON,
    "IDENTITY_CHAIN": IDENTITY_CHAIN_JSON,
    "CHAIN_R2N1": CHAIN_R2N1_JSON,
    "MATRIX_R2N1": MATRIX_R2N1_JSON,
    "VERTEX_R2N1": VERTEX_R2N1_JSON,
}

# sha256 of each command's stdout.  Each name in FILES stands for a file
# holding its JSON.  The digests pin the output byte for byte, so a
# change to any of them has to be deliberate.  This is the one list of
# checked CLI commands: TestOutputBytes runs each row in process and again
# in a stdlib-only child.
STDOUT_SHA256 = {
    "chains --r 2 --n 2": "3a81249718ba69b5c95be69701c7ba81e87e3d44b998ced09b53f71e3ad769c8",
    "chains --r 2 --n 2 --table": "f8b9b205468028babb7b590e0c3b519c7a6d40ffd0f080af1dbfd47fd521916e",
    "hasse --r 2 --n 2": "16a0a0a3399af886907aaa799ce082a7c748ded5c030d1e98cc1037a321042f5",
    "coset --chain CHAIN --elements": "afe60f72221d5226b233e1bc45a5ca2505cfc630c72bc32e92ae50cb960d17b2",
    "face --chain CHAIN --vertices --factors": "fab810b77a904b3f3c8e241f16457a1018c79267c9c75cf523406b115b81e89a",
    "stratum --chain CHAIN": "c5116ead9a3451219473b1be730229fb78b698aaec7dbc94ae88fa16951cf4d7",
    "stratum --chain CHAIN --dot": "cb6dd2b9f3bfdbbb24b5603dd5d88137618e2e0b6741003371b761d982988103",
    "act --matrix MATRIX --chain CHAIN": "65a519bd67546ff8bf2032f457954b60d9431b20a55a0076c09adcb9c5bf9151",
    "act --matrix MATRIX --vertex VERTEX": "ddcdac9461768f8628a6b4fc0641799e99febf46de5e652409fe81efeefe95bf",
    "act --matrix MATRIX_R2N1 --vertex VERTEX_R2N1": "2b9dec6a0c8e9de799d1837df43e0eb65201d76466f53d58d7203884873a2f58",
    "face --chain EMPTY_CHAIN --vertices --factors": "d1eab36046ac946a6757290214b30b94b9822275b75fdf84644214397bb3a8d9",
    "coset --chain EMPTY_CHAIN --elements": "f1b9d45e459f878e00038ec888fe1d4345f30521b8ed10a81d7a966a97686030",
    "act --matrix MATRIX_R2N3 --chain EMPTY_CHAIN": "6d79c84361adc0bcc646a07bff72acacd17d92127a88248a093e736f45b5c13f",
    "coset --chain EMPTY_CHAIN_R3N4 --elements": "618018c04f5e11691192c648f30c24e87a7e2fe171d1bc6c74259c3244fa7454",
    "face --chain EMPTY_CHAIN_R3N4 --vertices --factors": "438ba96a600618cb69ba51012433f48a72e2661b629fc29b7e3aa944bc5efe05",
    "face --chain CHAIN_R3N1 --vertices": "82a46a130520e6b554a5a041d06f0b944fedfcd443a06425e33a3c0e45e04062",
    "act --matrix MATRIX_R2N8 --chain EMPTY_CHAIN_R2N8": "8a52b25d60842c027f6dd6cac1356fcdef7ec2079312674c8abfb175071217a7",
    "verify --r 2 --n 2 --suite all": "3ca91032a02de9a98d6f9daca59600d6ce9192c921cf6c81fa1e8b3196a1970d",
    "verify --suite equivariance --r 2 --n 3": "aa122fa62f620027824eb516b897d78037d207e2f4454bbd733a39b2a5eb3260",
    "verify --r 2 --n 3 --suite all": "d7af48dd0dcdcaba7f8e9984a78a60f60b11aa7fb51d49dd26466f3c9d4f8903",
    "verify --r 3 --n 3 --suite all": "badea590fdcfd5f9332c06fbd454e6d4b899d712c1def31125a25c5d4b6ff6fe",
    "verify --r 6 --n 2 --suite all": "6f93f6739e3e00e81a37c1b3b91f391c08bd72197fbbe544e9a85516b243d46a",
}


@pytest.fixture
def inputs(tmp_path):
    """A directory holding each FILES entry as `<name>.json`."""
    for name, text in FILES.items():
        (tmp_path / f"{name}.json").write_text(text)
    return tmp_path


def command_argv(command: str, inputs) -> list[str]:
    """`command` split into arguments, each name in FILES replaced by its file's path."""
    return [str(inputs / f"{a}.json") if a in FILES else a for a in command.split()]


# The command that reads a file of each kind, "{}" standing for that file.
READING = {
    "chain": "face --chain {}",
    "matrix": "act --matrix {} --chain CHAIN_R2N1",
    "vertex": "act --matrix MATRIX_R2N1 --vertex {}",
}


def reading(what: str, path, inputs) -> list[str]:
    """A command line that reads `path` as a `what` file."""
    return [str(path) if a == "{}" else a for a in command_argv(READING[what], inputs)]


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestChains:
    def test_count_and_determinism(self, capsys):
        code, out = run(capsys, "chains", "--r", "2", "--n", "2")
        assert code == 0
        assert len(json.loads(out)) == 17
        _, again = run(capsys, "chains", "--r", "2", "--n", "2")
        assert out == again

    def test_dim_filter(self, capsys):
        code, out = run(capsys, "chains", "--r", "2", "--n", "2", "--dim", "0")
        assert code == 0
        chains = json.loads(out)
        assert len(chains) == 8
        assert all(len(c["sets"]) == 2 for c in chains)

    def test_negative_dim_is_refused(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["chains", "--r", "2", "--n", "2", "--dim", "-1"])
        assert str(err.value) == "error: --dim must be >= 0, got -1"
        assert capsys.readouterr().out == ""

    def test_dim_above_n_is_empty(self, capsys):
        code, out = run(capsys, "chains", "--r", "2", "--n", "2", "--dim", "3")
        assert (code, out) == (0, "[]\n")

    def test_table(self, capsys):
        code, out = run(capsys, "chains", "--r", "2", "--n", "1", "--table")
        assert code == 0
        assert "dim" in out and "{1}" in out

    def test_output_feeds_back_in(self, capsys, tmp_path):
        _, out = run(capsys, "chains", "--r", "3", "--n", "2", "--dim", "1")
        first = json.loads(out)[0]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(first))
        code, out = run(capsys, "face", "--chain", str(path))
        assert code == 0
        assert json.loads(out)["chain"] == first


class TestCoset:
    def test_worked_example_elements(self, capsys, inputs):
        code, out = run(capsys, *command_argv("coset --chain CHAIN --elements", inputs))
        assert code == 0
        data = json.loads(out)
        assert data["gens"] == [0, 2]
        assert len(data["elements"]) == 6
        rows = {tuple(col["row"] for col in e["cols"]) for e in data["elements"]}
        assert rows == {(1, 3, 4, 2), (1, 2, 4, 3)}


class TestFace:
    def test_vertices_and_factors(self, capsys, inputs):
        code, out = run(capsys, *command_argv("face --chain CHAIN --vertices --factors", inputs))
        assert code == 0
        data = json.loads(out)
        assert data["dimension"] == 2
        assert len(data["vertices"]) == 6
        assert [f["kind"] for f in data["factors"]] == [
            "complex",
            "permutohedron",
            "permutohedron",
        ]


class TestStratum:
    def test_json(self, capsys, inputs):
        code, out = run(capsys, *command_argv("stratum --chain CHAIN", inputs))
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_dot(self, capsys, inputs):
        code, out = run(capsys, *command_argv("stratum --chain CHAIN --dot", inputs))
        assert code == 0
        assert out.startswith("graph") and "y^0" in out


class TestHasse:
    def test_dot(self, capsys):
        code, out = run(capsys, "hasse", "--r", "2", "--n", "2")
        assert code == 0
        assert out.count("->") == 24

    def test_dot_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["hasse", "--r", "2", "--n", "2", "--dot"])
        assert err.value.code == 2
        assert "unrecognized arguments: --dot" in capsys.readouterr().err


class TestAct:
    def test_on_chain(self, capsys, inputs):
        code, out = run(capsys, *command_argv("act --matrix MATRIX --chain IDENTITY_CHAIN", inputs))
        assert code == 0
        data = json.loads(out)
        assert data["sets"] == [[1], [1, 3], [1, 3, 4], [1, 2, 3, 4]]
        assert data["decoration"] == {"1": 0, "2": 1, "3": 1, "4": 2}

    def test_on_a_full_face_lists_no_vertex(self, capsys, monkeypatch, inputs):
        monkeypatch.setattr(faces, "_face_coords", lambda c: pytest.fail("listed a face's vertices"))
        code, out = run(capsys, *command_argv("act --matrix MATRIX_R2N8 --chain EMPTY_CHAIN_R2N8", inputs))
        assert code == 0
        assert out == EMPTY_CHAIN_R2N8_JSON + "\n"

    def test_on_vertex(self, capsys, inputs):
        code, out = run(capsys, *command_argv("act --matrix MATRIX --vertex VERTEX", inputs))
        assert code == 0
        data = json.loads(out)
        assert data["coords"] == [
            {"mag": ["4", "1"], "branch": 0},
            {"mag": ["1", "1"], "branch": 2},
            {"mag": ["3", "1"], "branch": 2},
            {"mag": ["2", "1"], "branch": 1},
        ]


class TestVerify:
    def test_all_suites_clean(self, capsys):
        code, out = run(capsys, "verify", "--r", "2", "--n", "2", "--suite", "all")
        assert code == 0
        reports = json.loads(out)
        assert [rep["suite"] for rep in reports] == [
            "threeway",
            "equivariance",
            "products",
            "nonempty",
        ]
        assert reports[0]["counts_by_dim"] == [8, 8, 1]

    def test_single_suite(self, capsys):
        code, out = run(capsys, "verify", "--r", "3", "--n", "2", "--suite", "threeway")
        assert code == 0
        assert json.loads(out)[0]["counts_by_dim"] == [18, 15, 1]

    def test_cap_breach_names_the_cap(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--r", "4", "--n", "4", "--suite", "threeway"])
        assert "max_group_order" in str(err.value)

    def test_cap_breach_of_all_suites_prints_no_report(self, capsys):
        with pytest.raises(SystemExit, match="^size cap exceeded: ") as err:
            main(["verify", "--r", "4", "--n", "4", "--suite", "all"])
        assert "max_group_order=2000" in str(err.value)
        assert capsys.readouterr().out == ""

    def test_cap_breach_far_above_the_cap_prints_no_report(self, capsys):
        refusal = r"^size cap exceeded: group order at least 3840 for \(r=2, n=1500\) exceeds max_group_order=2000$"
        with pytest.raises(SystemExit, match=refusal):
            main(["verify", "--r", "2", "--n", "1500", "--suite", "threeway"])
        assert capsys.readouterr().out == ""

    def test_cap_can_be_raised(self, capsys):
        code, _ = run(
            capsys,
            "verify", "--r", "2", "--n", "2", "--suite", "products",
            "--max-group-order", "100000",
        )
        assert code == 0


SRC = str(Path(__file__).resolve().parents[1] / "src")


def stdlib_child(cwd, *args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter in dev mode with every warning an error.

    `-S` keeps site-packages, pytest included, off `sys.path`, and
    PYTHONPATH holds the source tree alone.
    """
    argv = [sys.executable, "-S", "-X", "dev", "-W", "error", *args]
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, timeout=60)


class TestOutputBytes:
    @pytest.mark.parametrize("command", sorted(STDOUT_SHA256))
    def test_stdout_digest(self, capsys, inputs, command):
        code, out = run(capsys, *command_argv(command, inputs))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]

    def test_every_command_runs_stdlib_only(self, inputs):
        probe = stdlib_child(inputs, "-c", "import importlib.util; assert importlib.util.find_spec('pytest') is None")
        assert probe.returncode == 0, f"pytest is importable without site-packages: {probe.stderr.decode()}"
        for command in sorted(STDOUT_SHA256):
            child = stdlib_child(inputs, "-m", "pinwheel.cli", *command_argv(command, inputs))
            assert (child.returncode, child.stderr) == (0, b""), command
            assert hashlib.sha256(child.stdout).hexdigest() == STDOUT_SHA256[command], command
        refused = stdlib_child(inputs, "-m", "pinwheel.cli", "verify", "--r", "4", "--n", "4", "--suite", "all")
        assert refused.returncode == 1
        assert refused.stdout == b""
        assert b"size cap exceeded" in refused.stderr

    def test_importing_the_cli_loads_no_dataclasses(self, tmp_path):
        # `dataclasses` brings `inspect`, `ast`, `dis` and `tokenize`, and every command imports the CLI.
        child = stdlib_child(tmp_path, "-c", "import pinwheel.cli, sys; print('dataclasses' in sys.modules)")
        assert (child.returncode, child.stderr, child.stdout) == (0, b"", b"False\n")


class TestErrors:
    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as err:
            main(["coset", "--chain", str(path)])
        assert "cannot read JSON" in str(err.value)

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(SystemExit) as err:
            main(["face", "--chain", str(path)])
        assert "cannot read JSON" in str(err.value)

    def test_invalid_chain(self, tmp_path, capsys):
        path = tmp_path / "bad_chain.json"
        path.write_text('{"r":2,"n":2,"sets":[[1],[1]],"decoration":{"1":0}}')
        with pytest.raises(SystemExit) as err:
            main(["face", "--chain", str(path)])
        assert "malformed chain" in str(err.value)

    @pytest.mark.parametrize(
        "what,text",
        [
            ("matrix", MATRIX_JSON.replace('"r": 3', '"r": 3.9')),
            ("matrix", MATRIX_JSON.replace('"exp": 1}', '"exp": 1.7}')),
            ("matrix", MATRIX_JSON.replace('"col": 1,', '"col": true,')),
            ("matrix", MATRIX_JSON.replace('"row": 4,', '"row": "4",')),
            ("chain", '{"r":2,"n":1,"sets":[[1.0]],"decoration":{"1":0}}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":{"1.0":0}}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":{" 1":0}}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":[]}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":null}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":"x"}'),
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":1}'),
            ("vertex", VERTEX_R2N1_JSON.replace('["2", "1"]', '["2", "0"]')),
            ("vertex", VERTEX_R2N1_JSON.replace('["2", "1"]', '["2.5", "1"]')),
            ("vertex", VERTEX_R2N1_JSON.replace('["2", "1"]', '[2, 1]')),
            ("vertex", VERTEX_R2N1_JSON.replace('["2", "1"]', '"21"')),
        ],
        ids=[
            "float-r", "float-exp", "bool-col", "string-row", "float-set-element",
            "float-key", "padded-key", "list-decoration", "null-decoration",
            "string-decoration", "number-decoration", "zero-denominator", "decimal-point-mag",
            "number-mag", "string-mag",
        ],
    )
    def test_inexact_input_is_refused(self, capsys, inputs, what, text):
        path = inputs / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(reading(what, path, inputs))
        assert str(err.value).startswith(f"malformed {what} in {path}: ")
        assert "different (r, n)" not in str(err.value)

    @pytest.mark.parametrize("what", ["chain", "matrix", "vertex"])
    @pytest.mark.parametrize("text", ["[1,2]", '"x"', "3"], ids=["list", "string", "number"])
    def test_top_level_non_object_is_named(self, capsys, inputs, what, text):
        path = inputs / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(reading(what, path, inputs))
        assert str(err.value) == f"malformed {what} in {path}: expected a JSON object"
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "what,text,key",
        [
            ("chain", '{"r":2,"n":1,"sets":[[1]],"decoration":{"1":0,"1":1}}', "1"),
            ("matrix", '{"r":2,"n":1,"cols":[{"col":1,"row":1,"exp":0,"exp":1}]}', "exp"),
        ],
        ids=["chain", "matrix"],
    )
    def test_repeated_key_is_refused(self, capsys, inputs, what, text, key):
        path = inputs / "repeated.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(reading(what, path, inputs))
        assert str(err.value) == f"cannot read JSON from {path}: repeated key {key!r}"
        assert capsys.readouterr().out == ""

    def test_missing_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["coset", "--chain", "/nonexistent/file.json"])

    def test_negative_n_is_named(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--r", "2", "--n", "-1", "--suite", "nonempty"])
        assert str(err.value) == "error: need r >= 2 and n >= 0, got r=2, n=-1"
        for argv, pair in (
            (["chains", "--r", "1", "--n", "2"], "r=1, n=2"),
            (["hasse", "--r", "2", "--n", "-1"], "r=2, n=-1"),
        ):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert str(err.value) == f"error: need r >= 2 and n >= 0, got {pair}"

    @pytest.mark.parametrize("flag", ["--max-group-order"])
    def test_negative_cap_is_named(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--r", "2", "--n", "2", "--suite", "nonempty", flag, "-5"])
        assert str(err.value) == f"error: {flag} must be >= 0, got -5"


class TestSharedOptions:
    SUBCOMMANDS = {
        "chains": ["chains", "--r", "2"],
        "hasse": ["hasse", "--r", "2"],
        "verify": ["verify", "--r", "2", "--suite", "nonempty"],
    }
    # Each subcommand's options after the shared --r and --n, in help order.
    OWN_OPTIONS = {"chains": ["--dim", "--table"], "hasse": [], "verify": ["--suite", "--max-group-order"]}

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_missing_n_is_named(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main(self.SUBCOMMANDS[command])
        assert err.value.code == 2
        assert "the following arguments are required: --n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    def test_help_lists_r_and_n_first(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "-h"])
        assert err.value.code == 0
        options = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, flags=re.MULTILINE)
        assert options == ["--r", "--n", *self.OWN_OPTIONS[command]]


# Small arbitrary JSON: integers, short strings, null, and lists and objects
# keyed by the field names the loaders read, at most 12 leaves in all.
FIELDS = ["r", "n", "sets", "decoration", "cols", "col", "row", "exp", "coords", "mag", "branch", "1", "2"]
LEAVES = [*range(-3, 6), "1", "2", "-1", "x", None]


def json_value(rng: random.Random, leaves: list[int]):
    """A value of the grammar above; `leaves` holds the count of leaves still allowed."""
    shape = rng.choice(("leaf", "list", "object")) if leaves[0] > 1 else "leaf"
    if shape == "leaf":
        leaves[0] -= 1
        return rng.choice(LEAVES)
    size = rng.randint(0, 3 if shape == "list" else 4)
    if shape == "list":
        return [json_value(rng, leaves) for _ in range(size) if leaves[0]]
    return {rng.choice(FIELDS): json_value(rng, leaves) for _ in range(size) if leaves[0]}


class TestLoaderFuzz:
    def test_arbitrary_json_exits_cleanly(self, inputs):
        # 600 seeded values, each fed to one of the three loaders.
        rng = random.Random(36)
        fuzzed = inputs / "fuzzed.json"
        kinds = Counter()
        for _ in range(600):
            what = rng.choice(sorted(READING))
            kinds[what] += 1
            fuzzed.write_text(json.dumps(json_value(rng, [12])))
            try:
                assert main(reading(what, fuzzed, inputs)) == 0
            except SystemExit as exc:
                assert "\n" not in str(exc)
        assert sorted(kinds) == sorted(READING), kinds
