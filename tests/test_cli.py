"""The CLI's error boundary and start-up cost.

Exit 1 means "found something" for ``check``, ``fuzz``, ``analyze``,
``generate --min-banked`` and ``sancheck --min-fn/--min-fp``, so an
input the program cannot use must not exit 1 too: ``main()`` turns any
:class:`~repro.errors.ReproError` a command does not handle into a
one-line message and exit 2, the usage-error code.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "sanval")

STABLE = "int main(void) { printf(\"%d\\n\", 1); return 0; }\n"


def _write(path, text: str) -> str:
    path.write_text(text)
    return str(path)


INVOCATIONS = {
    # ParseError: the program is missing a ';'.
    "unparseable-program": lambda tmp: [
        "check", _write(tmp / "bad.c", "int main(void) { return 0 }\n")
    ],
    # CheckpointError: the resume directory holds a garbage checkpoint.
    "garbage-checkpoint": lambda tmp: [
        "sancheck", "--fixtures", FIXTURES, "--resume",
        os.path.dirname(_write(tmp / "sancheck.ckpt", "garbage")),
    ],
    # EngineConfigError from the oracle engine.
    "zero-workers": lambda tmp: [
        "generate", "--seed", "0", "--budget", "1", "--no-reduce",
        "--corpus", str(tmp / "corpus"), "--workers", "0",
    ],
    # EngineConfigError from the CLI's campaign runner.
    "zero-shards": lambda tmp: [
        "generate", "--seed", "0", "--budget", "1", "--no-reduce",
        "--corpus", str(tmp / "corpus"), "--shards", "0",
    ],
    # EngineConfigError from the sharded campaign runtime.
    "shards-with-workers": lambda tmp: [
        "generate", "--seed", "0", "--budget", "1", "--no-reduce",
        "--corpus", str(tmp / "corpus"), "--checkpoint-dir", str(tmp / "ckpt"),
        "--shards", "2", "--workers", "2",
    ],
    # EngineConfigError from the fuzzer and the campaign kernel.
    "zero-stride": lambda tmp: [
        "fuzz", _write(tmp / "ok.c", STABLE), "--stride", "0"
    ],
    "zero-checkpoint-cadence": lambda tmp: [
        "generate", "--seed", "0", "--budget", "1", "--no-reduce",
        "--corpus", str(tmp / "corpus"), "--checkpoint-dir", str(tmp / "ckpt"),
        "--checkpoint-every", "0",
    ],
}


@pytest.mark.parametrize("make_argv", INVOCATIONS.values(), ids=INVOCATIONS.keys())
def test_unhandled_repro_error_exits_two(tmp_path, capsys, make_argv):
    assert cli_main(make_argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro: ")


def test_generate_stats_show_the_oracle_questions(tmp_path, capsys):
    argv = [
        "generate", "--seed", "0", "--budget", "1", "--no-reduce",
        "--corpus", str(tmp_path / "corpus"), "--stats",
    ]
    assert cli_main(argv) == 0
    err = capsys.readouterr().err
    assert "oracle questions: asked=" in err


def test_building_the_parser_imports_no_campaign_package():
    probe = (
        "import sys\n"
        "from repro.cli import build_parser\n"
        "build_parser()\n"
        "print(sorted(m for m in ('repro.generative', 'repro.sanval',\n"
        "                         'repro.campaigns.runtime', 'repro.campaigns.kernel')\n"
        "             if m in sys.modules))\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"
