import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fracstab.cli import main
from fracstab.config import MAX_NODES, RunConfig, parse_config
from fracstab.errors import ConfigError
from fracstab.inequalities import MAX_INSTANCES
from fracstab.reporting import read_trajectory_csv
from fracstab.solver import finest_steps

EX1_BLOCK = """\
preset = example1
order = 0.9
dim = 2
x0 = [-10, 10]
rhs1 = "-x1 - x2/(1+t)"
rhs2 = "x1 - x2"
t_end = 50
h = 0.01
"""

SMALL_SYSTEM = """\
dim = 1
order = 0.5
x0 = [1]
rhs1 = "-x1"
t_end = 1
h = 0.01
"""

DIVERGING = 'dim = 1\norder = 0.8\nx0 = [3]\nrhs1 = "x1^3"\nt_end = 20\nh = 0.05\n'


# --- config parsing --------------------------------------------------------------


def test_parse_example1_block():
    cfg = parse_config(EX1_BLOCK)
    assert cfg.system.dim == 2
    assert cfg.system.order.alpha == 0.9
    assert cfg.grid.n_steps == 5000
    assert list(cfg.system.x0) == [-10.0, 10.0]


def test_parse_preset_defaults_fill_in():
    cfg = parse_config("preset = example2\n")
    assert cfg.system.dim == 1
    assert cfg.system.order.alpha == 0.8
    assert cfg.grid.t_end == 20.0


def test_missing_order_names_the_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("dim = 1\nx0 = [1]\nrhs1 = \"-x1\"\nt_end = 1\nh = 0.1\n")
    assert "order" in str(exc.value)


def test_dimension_mismatches():
    with pytest.raises(ConfigError) as exc:
        parse_config(EX1_BLOCK + 'rhs3 = "t"\n')
    assert "rhs3" in str(exc.value)
    with pytest.raises(ConfigError):
        parse_config(SMALL_SYSTEM.replace("x0 = [1]", "x0 = [1, 2]"))


@pytest.mark.parametrize("key, value", [("order", "0.5"), ("rhs1", '"-x1"')])
def test_duplicate_keys_are_config_errors_at_the_second_line(key, value):
    with pytest.raises(ConfigError, match=f"duplicate key '{key}'") as exc:
        parse_config(SMALL_SYSTEM + f"{key} = {value}\n")
    assert exc.value.line == 7


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("preset = example1\nwibble = 3\n")
    assert "line 2" in str(exc.value)
    # example 3's envelope is the `reproduce --phi` flag; no config run reads one
    with pytest.raises(ConfigError, match="unknown key 'phi'") as exc:
        parse_config('preset = example3\nphi = "exp(-2*t)"\n')
    assert exc.value.line == 2
    # no output reads a label; the preset's name labels a `reproduce` report
    with pytest.raises(ConfigError, match="unknown key 'label'") as exc:
        parse_config('preset = example1\nseed = 1\nlabel = "x"\n')
    assert exc.value.line == 3


def test_comments_and_quoted_hash():
    cfg = parse_config(SMALL_SYSTEM + '# full-line comment\noutput = "a#b"  # trailing\n')
    assert cfg.output == "a#b"


def test_checks_parsing():
    cfg = parse_config(SMALL_SYSTEM + "checks = [nr1:5, nr4_identity:3]\nseed = 9\n")
    assert cfg.checks == (("nr1", 5), ("nr4_identity", 3))
    assert cfg.seed == 9
    single = parse_config(SMALL_SYSTEM + "checks = nr1:7\n")
    assert single.checks == (("nr1", 7),)
    default_count = parse_config(SMALL_SYSTEM + "checks = nr1\n")
    assert default_count.checks[0][1] == 100


def test_grid_must_divide():
    with pytest.raises(ConfigError):
        parse_config(SMALL_SYSTEM.replace("h = 0.01", "h = 0.3"))


def test_seed_must_be_integer():
    with pytest.raises(ConfigError):
        parse_config(SMALL_SYSTEM + "seed = 1.5\n")


def test_negative_seed_is_a_config_error_at_its_line(tmp_path, capsys):
    text = "preset = example1\nseed = -1\nchecks = [nr1:2]\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == 2
    assert main(["check", _write(tmp_path, "neg.cfg", text), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: line 2: seed must be an integer >= 0")


# values whose own parsing or validation fails, each with the line of its key
BAD_VALUE_LINES = {
    "order": ("preset = example1\norder = 2\n", 2),
    "rhs_syntax": ('preset = example1\n# comment\nrhs1 = "sin("\n', 3),
    "rhs_identifier": ('preset = example1\nrhs1 = "x1 + y"\n', 2),
    "phi_syntax": ('preset = example3\nh = 0.01\nphi = "exp(-t"\n', 3),
    "phi_envelope": ('phi = "t"\npreset = example3\n', 1),
    "phi_example1": ('preset = example1\nphi = "exp(-t)"\n', 2),
    "phi_example2": ('phi = "t"\npreset = example2\n', 1),
    "phi_custom": (SMALL_SYSTEM + 'phi = "exp(-t)"\n', 7),
    "x0_nan": ('preset = example1\nx0 = ["nan", 1]\n', 2),
    "rhs_beyond_dim": ('preset = example1\nrhs2 = "x3"\n', 2),
    "dim_zero": ("dim = 0\norder = 0.5\nx0 = []\nt_end = 1\nh = 0.01\n", 1),
    "preset_unknown": ("# comment\npreset = example9\n", 2),
    "x0_bare": ("preset = example1\nx0 = 1\n", 2),
    "x0_nested": ("preset = example2\nx0 = [[1]]\n", 2),
    "h_negative": ("preset = example1\nh = -0.1\n", 2),
    "checks_number": ("preset = example1\nchecks = [5]\n", 2),
    "checks_count": ("preset = example1\nchecks = [nr1:x]\n", 2),
    "h_list_bare": ("preset = example1\nh_list = 0.01\n", 2),
    "h_list_negative": ("preset = example1\nh_list = [0.01, -0.005]\n", 2),
    "h_list_not_dividing": ("preset = example1\nt_end = 1\nh_list = [0.01, 0.0031]\n", 3),
    "rhs_infinite_literal": ('preset = example1\nrhs1 = "1e999"\n', 2),
    "output_list": ("preset = example1\noutput = [a]\n", 2),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUE_LINES))
def test_value_errors_are_config_errors_at_the_key_line(tmp_path, capsys, case):
    text, line = BAD_VALUE_LINES[case]
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line == line
    assert main(["simulate", _write(tmp_path, "bad.cfg", text), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"config error: line {line}: ")


_VALID_LINES = {"dim": "1", "order": "0.5", "x0": "[1]", "rhs1": '"-x1"', "t_end": "1", "h": "0.01"}
_KEYS = ("preset", "order", "dim", "t0", "t_end", "h", "output", "seed", "label", "phi",
         "x0", "checks", "h_list", "rhs1", "rhs2", "rhs3", "rhs0", "wibble")
_VALUES = st.one_of(
    st.integers(-2, 4).map(str),
    st.sampled_from(["0.01", "0.5", "0.25", "1e300", "1e-300", "-0", "nan", "inf", "1e3", "1.0"]),
    st.sampled_from(['"-x1"', '"x1 - x2"', '"sin("', '"x1 + y"', '"exp(-t"', '"t"', '"exp(-t)"',
                     '"x3"', '"r"', '"1/(t - 1)"', '""', '"nan"', '"-inf"', '"0.5"', '"abc']),
    st.text("x12t+-*/()^. e", max_size=8).map(lambda v: f'"{v}"'),
    st.sampled_from(["example1", "example2", "example3", "example9", "nr1:3", "nr1:0", "nr1:x", "two"]),
    st.lists(st.sampled_from(["1", "-0.5", "0", '"nan"', '"1"', "nr1:2", "a", "[1]", ""]), max_size=3)
    .map(lambda v: "[" + ", ".join(v) + "]"),
    st.sampled_from(["", "[", "[1", '"', "= 1"]),
)


@st.composite
def _config_texts(draw, messy=True):
    """Config text from a valid base with keys replaced; messy texts may
    also start empty, drop keys and carry junk lines."""
    entries = dict(_VALID_LINES) if not messy or draw(st.booleans()) else {}
    entries.update(draw(st.dictionaries(st.sampled_from(_KEYS), _VALUES, max_size=4 if messy else 1)))
    if messy:
        for key in draw(st.lists(st.sampled_from(sorted(entries) or ["dim"]), max_size=2)):
            entries.pop(key, None)
    lines = [f"{key} = {value}" for key, value in entries.items()]
    if messy:
        lines += draw(st.lists(st.text(max_size=10), max_size=2))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None)
@given(_config_texts())
@example("preset = example1\nrhs1 = \"x1 + y\"\n")
@example("preset = example3\nphi = \"exp(-t\"\n")
@example('dim = 0\norder = 0.5\nx0 = []\nt_end = 1\nh = 0.01\n')
@example('preset = example1\nx0 = ["nan", 1]\n')
def test_any_config_text_is_a_run_config_or_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


# lines that give `check` and `convergence` something to run; the property
# adds one to a drawn config text that lacks the key
_COMMAND_LINES = {
    "simulate": st.just(""),
    "check": st.lists(st.sampled_from(["nr1:2", "nr2:1", "nr4_identity:3", "nr6:1", "lemma3:2",
                                       "nr12:1", "nr1:0", "wibble:1"]), min_size=1, max_size=2)
    .map(lambda v: "checks = [" + ", ".join(v) + "]"),
    "convergence": st.sampled_from(["[0.1, 0.05]", "[0.05, 0.025, 0.0125]", "[0.1]", "[0.3, 0.1]",
                                    "[0.1, 0.1]", "[0.05, 0.1]"]).map(lambda v: f"h_list = {v}"),
}
_SMALL_RUN_NODES = 300


@st.composite
def _cli_runs(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_LINES)))
    text = draw(st.one_of(_config_texts(), _config_texts(messy=False)))
    extra = draw(_COMMAND_LINES[command])
    if extra and extra.split()[0] not in text and draw(st.booleans()):
        text = f"{text}\n{extra}"
    return command, text


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_cli_runs())
@example(("simulate", 'preset = example1\nx0 = ["nan", 1]\n'))
@example(("simulate", DIVERGING.replace("t_end = 20", "t_end = 5")))
@example(("convergence", SMALL_SYSTEM + "h_list = [0.1, 0.05]\n"))
@example(("convergence", "preset = example1\nt_end = 1\nh_list = [0.01, 0.0031]\n"))
@example(("check", SMALL_SYSTEM + "checks = [nr1:2, two]\n"))
@example(("check", "seed = 2\nchecks = [nr1:2]\n"))
@example(("convergence", "h_list = [0.1, 0.05]\n"))
def test_main_exits_0_to_4_without_traceback(tmp_path, capsys, run):
    command, text = run
    try:
        cfg = parse_config(text)
    except ConfigError:
        pass
    else:  # keep the runs small; a config that names no system has no grid to bound
        if cfg.grid is not None:
            assume(cfg.grid.n_nodes <= _SMALL_RUN_NODES)
            if cfg.h_list:
                assume(finest_steps(cfg.grid.t_end - cfg.grid.t0, cfg.h_list) < _SMALL_RUN_NODES)
        assume(all(count <= 3 for _, count in cfg.checks))
    path = tmp_path / "run.cfg"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    code = main([command, str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in captured.out + captured.err


# --- CLI end-to-end ------------------------------------------------------------------


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_simulate_roundtrip(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_SYSTEM)
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--out", str(out)]) == 0
    ts, states = read_trajectory_csv(out / "trajectory.csv")
    assert ts.shape == (101,)
    assert states[0, 0] == 1.0
    # bit-exact round trip against an in-process solve
    from fracstab.config import load_config
    from fracstab.solver import solve

    config = load_config(cfg)
    traj = solve(config.system, config.grid)
    assert np.array_equal(states, traj.matrix())
    assert np.array_equal(ts, traj.grid.nodes())


def test_simulate_divergence_exit_code(tmp_path):
    cfg = _write(tmp_path, "div.cfg", DIVERGING)
    assert main(["simulate", cfg, "--out", str(tmp_path / "o")]) == 2


def test_convergence_divergence_exit_code(tmp_path):
    cfg = _write(tmp_path, "div.cfg", DIVERGING + "h_list = [0.05, 0.025]\n")
    assert main(["convergence", cfg, "--out", str(tmp_path / "o")]) == 2


def test_simulate_io_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_SYSTEM)
    assert main(["simulate", cfg, "--out", "/dev/null/impossible"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{chk}", "--out", "/dev/null/x"],
        ["convergence", "{conv}", "--out", "/dev/null/x"],
        ["reproduce", "2", "--out", "/dev/null/x"],
        ["plotscript", "{missing}"],
    ],
)
def test_io_error_exit_code(tmp_path, argv):
    paths = {
        "chk": _write(tmp_path, "chk.cfg", SMALL_SYSTEM + "checks = [nr1:2]\n"),
        "conv": _write(tmp_path, "conv.cfg", SMALL_SYSTEM + "h_list = [0.01, 0.005]\n"),
        "missing": str(tmp_path / "missing.csv"),
    }
    assert main([a.format(**paths) for a in argv]) == 3


@pytest.mark.parametrize(
    "lines", ["t_end = inf\nh = 0.01\n", "t_end = 1e300\nh = 1e-300\n", "t_end = nan\nh = 0.01\n"]
)
def test_non_finite_numbers_are_config_errors(tmp_path, lines):
    text = 'dim = 1\norder = 0.5\nx0 = [1]\nrhs1 = "-x1"\n' + lines
    with pytest.raises(ConfigError):
        parse_config(text)
    assert main(["simulate", _write(tmp_path, "bad.cfg", text), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "text",
    [
        SMALL_SYSTEM.replace("t_end = 1", 't_end = "abc"'),
        SMALL_SYSTEM.replace("dim = 1", "dim = two"),
        SMALL_SYSTEM.replace("x0 = [1]", "x0 = [one]"),
        SMALL_SYSTEM + "checks = [nr1:-3]\n",
        SMALL_SYSTEM + "checks = [nr1:0]\n",
        # rejected by the x0 length check before anything is sized by dim
        SMALL_SYSTEM.replace("dim = 1", "dim = 1000000000000"),
        SMALL_SYSTEM + "h_list = [0.01, 0]\n",
        SMALL_SYSTEM + 'h_list = [0.01, "nan"]\n',
    ],
    ids=["quoted_t_end", "bare_word_dim", "bare_word_x0", "negative_count", "zero_count", "huge_dim",
         "zero_h_list_step", "nan_h_list_step"],
)
def test_bad_values_are_config_errors(tmp_path, text):
    with pytest.raises(ConfigError):
        parse_config(text)
    assert main(["check", _write(tmp_path, "bad.cfg", text), "--out", str(tmp_path / "o")]) == 1


# one past each documented limit: the run grid, the instance count of a check
# suite and the convergence study's finest grid, the halving of the grid at
# min(h_list), whose node count 2 n + 1 is odd: at h = 1 / 500000 it is one past
OVER_LIMIT = {
    "grid": ("simulate", SMALL_SYSTEM.replace("t_end = 1", f"t_end = {MAX_NODES // 100}")),
    "instances": ("check", SMALL_SYSTEM + f"checks = [nr1:{MAX_INSTANCES + 1}]\n"),
    "finest_grid": ("convergence", SMALL_SYSTEM + f"h_list = [0.01, {2.0 / MAX_NODES!r}]\n"),
    "tiny_h": ("simulate", SMALL_SYSTEM.replace("t_end = 1", "t_end = 100").replace("h = 0.01", "h = 1e-9")),
    "huge_count": ("check", SMALL_SYSTEM + "checks = [nr1:100000000000]\n"),
}


def test_resource_limits_admit_the_limit_itself():
    at_grid = parse_config(SMALL_SYSTEM.replace("t_end = 1", f"t_end = {(MAX_NODES - 1) / 100!r}"))
    assert at_grid.grid.n_nodes == MAX_NODES
    assert parse_config(SMALL_SYSTEM + f"checks = [nr1:{MAX_INSTANCES}]\n").checks[0][1] == MAX_INSTANCES
    at_finest = parse_config(SMALL_SYSTEM + f"h_list = [0.01, {2.0 / (MAX_NODES - 2)!r}]\n")
    assert finest_steps(1.0, at_finest.h_list) + 1 == MAX_NODES - 1
    for _, text in OVER_LIMIT.values():
        with pytest.raises(ConfigError, match="limit|instance count"):
            parse_config(text)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@pytest.mark.parametrize("case", sorted(OVER_LIMIT))
def test_over_limit_configs_fail_before_allocating(tmp_path, case):
    # The CLI runs with its address space capped at what its imports took
    # plus 8 MiB, less than one array of MAX_NODES floats: a config that got
    # past the limits would end in a MemoryError traceback, not a config error.
    capped_main = (
        "import resource, sys\n"
        "import fracstab.cli as cli\n"
        "with open('/proc/self/statm') as fh:\n"
        "    used = int(fh.read().split()[0]) * resource.getpagesize()\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (used + (8 << 20), hard))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    command, text = OVER_LIMIT[case]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", capped_main, command, _write(tmp_path, "big.cfg", text),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr, proc.stderr


def test_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "bad.cfg", "nonsense\n")
    assert main(["simulate", cfg]) == 1
    assert main(["simulate", str(tmp_path / "missing.cfg")]) == 1
    (tmp_path / "binary.cfg").write_bytes(b"\xff\xfedim = 1\n")
    assert main(["simulate", str(tmp_path / "binary.cfg")]) == 1


def test_check_command(tmp_path):
    cfg = _write(tmp_path, "chk.cfg", SMALL_SYSTEM + "checks = [nr1:4, nr4_identity:2]\nseed = 3\n")
    out = tmp_path / "chk"
    assert main(["check", cfg, "--out", str(out)]) == 0
    summary = (out / "check_summary.csv").read_text().splitlines()
    assert summary[0] == "name,instances,passes,max_violation"
    assert summary[1].startswith("nr1,4,4,")
    assert (out / "nr1" / "instance_0000.csv").exists()


CHECKS_ONLY = "seed = 3\nchecks = [nr1:4, nr4_identity:2, nr6:2]\n"


def test_a_config_that_names_no_system_has_no_system_or_grid():
    cfg = parse_config(CHECKS_ONLY)
    assert (cfg.system, cfg.grid, cfg.seed) == (None, None, 3)
    assert cfg.checks == (("nr1", 4), ("nr4_identity", 2), ("nr6", 2))
    # h_list is still checked on its own; only its span needs a system
    with pytest.raises(ConfigError, match="h_list steps must be > 0") as exc:
        parse_config("h_list = [0.1, -0.05]\n")
    assert exc.value.line == 1


def test_check_runs_a_config_that_names_no_system(tmp_path):
    # the suites draw on their own grid, so the files are those of the same
    # config with a preset's system added
    bare, with_preset = tmp_path / "bare", tmp_path / "preset"
    preset_cfg = _write(tmp_path, "preset.cfg", "preset = example1\n" + CHECKS_ONLY)
    assert main(["check", _write(tmp_path, "bare.cfg", CHECKS_ONLY), "--out", str(bare)]) == 0
    assert main(["check", preset_cfg, "--out", str(with_preset)]) == 0
    files = sorted(p.relative_to(bare) for p in bare.rglob("*"))
    assert len(files) > 3
    assert files == sorted(p.relative_to(with_preset) for p in with_preset.rglob("*"))
    for name in files:
        if (bare / name).is_file():
            assert (bare / name).read_bytes() == (with_preset / name).read_bytes()


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_simulate_and_convergence_refuse_a_config_that_names_no_system(tmp_path, capsys, command):
    cfg = _write(tmp_path, "bare.cfg", CHECKS_ONLY + "h_list = [0.1, 0.05]\n")
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "config error: missing key 'dim'\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "lines, message",
    [("t_end = 0\n", "t_end must exceed t0, got t_end=0.0, t0=0.0"),
     ("t_end = 1e300\nh = 1e-300\n", "(t_end - t0) / h is not finite: 1e+300 / 1e-300"),
     ("t_end = 1e30\nh = 0.001\n", "(t_end - t0) / h exceeds 9223372036854775806 steps: 1e+30 / 0.001")],
)
def test_a_span_error_names_no_line(tmp_path, capsys, lines, message):
    text = "preset = example1\n" + lines
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.line is None
    assert main(["simulate", _write(tmp_path, "span.cfg", text), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_check_unknown_name_exit_code(tmp_path):
    cfg = _write(tmp_path, "chk.cfg", SMALL_SYSTEM + "checks = bogus:3\n")
    assert main(["check", cfg, "--out", str(tmp_path / "o")]) == 4


def test_reproduce_example2(tmp_path):
    out = tmp_path / "rep2"
    assert main(["reproduce", "2", "--out", str(out)]) == 0
    first_rows = (out / "trajectory.csv").read_text().splitlines()[:2]
    assert first_rows[0] == "t,x1"
    assert first_rows[1].startswith("0,0.1")
    summary = (out / "stability_summary.txt").read_text()
    assert "all_checks: pass" in summary
    assert (out / "dissipation.csv").exists()


def test_reproduce_refuses_phi_outside_example3(tmp_path, capsys):
    out = tmp_path / "bad"
    assert main(["reproduce", "2", "--phi", "exp(-t)", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: phi is a plug-in envelope of example3 only")
    assert not out.exists()


def test_reproduce_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "2", "--out", str(out1)]) == 0
    assert main(["reproduce", "2", "--out", str(out2)]) == 0
    for name in ("trajectory.csv", "stability_summary.txt", "dissipation.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_reproduce_env_var_default(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("FRACSTAB_OUT", str(target))
    assert main(["reproduce", "2"]) == 0
    assert (target / "trajectory.csv").exists()


def test_convergence_command(tmp_path):
    cfg = _write(tmp_path, "conv.cfg", SMALL_SYSTEM + "h_list = [0.01, 0.005, 0.0025]\n")
    out = tmp_path / "conv"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,max_error"
    assert lines[-1].startswith("fitted_order,")
    order = float(lines[-1].split(",")[1])
    assert 1.2 <= order <= 2.1


def test_convergence_requires_h_list(tmp_path):
    cfg = _write(tmp_path, "conv.cfg", SMALL_SYSTEM)
    assert main(["convergence", cfg, "--out", str(tmp_path / "o")]) == 1


def test_plotscript(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL_SYSTEM)
    out = tmp_path / "sim"
    main(["simulate", cfg, "--out", str(out)])
    assert main(["plotscript", str(out / "trajectory.csv")]) == 0
    script = (out / "trajectory.gp").read_text()
    assert "trajectory.csv" in script and "x1" in script


def test_plotscript_bad_input_exit_codes(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["plotscript", str(empty)]) == 1  # no header line
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfet,x1\n")
    assert main(["plotscript", str(binary)]) == 3  # not UTF-8 text


def test_usage_error_exit_code():
    assert main(["simulate"]) == 1
    assert main(["notacommand"]) == 1


def test_check_outputs_byte_identical(tmp_path):
    cfg = _write(tmp_path, "chk.cfg", SMALL_SYSTEM + "checks = [lemma4:6]\nseed = 11\n")
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert main(["check", cfg, "--out", str(out1)]) == 0
    assert main(["check", cfg, "--out", str(out2)]) == 0
    assert (out1 / "check_summary.csv").read_bytes() == (out2 / "check_summary.csv").read_bytes()
    for p in sorted((out1 / "lemma4").iterdir()):
        assert p.read_bytes() == (out2 / "lemma4" / p.name).read_bytes()


def test_cli_import_leaves_heavy_modules_unloaded():
    # mpmath serves only the Mittag-Leffler fallback and the FFT and random
    # modules only some operators, suites and solves; a CLI process that
    # needs none of them must not pay for their import
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fracstab.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split("'"))
    assert "fracstab.cli" in loaded
    assert not loaded & {"mpmath", "numpy.fft", "numpy.random"}


def test_cli_subprocess_end_to_end(tmp_path):
    import subprocess
    import sys

    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "fracstab.cli", "reproduce", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "all_checks: pass" in proc.stdout
    assert (out / "trajectory.csv").exists()
