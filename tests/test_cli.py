import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dimspec import acceptance, cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_json(argv, capsys):
    code, out = run(argv + ["--no-timestamp"], capsys)
    return code, json.loads(out)


def parse_csv(text):
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return meta, rows[0], rows[1:]


# --- worked examples --------------------------------------------------------

def _readme_commands():
    """The commands of README's "Command line" block, as argv lists."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("dimspec ")]


def test_readme_commands_run(capsys):
    # README documents exit 0 for each command and 1 for verify, whose
    # criteria 3 and 4 fail by design.
    commands = _readme_commands()
    assert len(commands) == 11
    for argv in commands:
        assert run(argv, capsys)[0] == (1 if argv[0] == "verify" else 0), argv


def test_dim_cantor_pair(capsys):
    code, doc = run_json(["dim", "--family", "cantor-pair", "--tol", "1e-12"], capsys)
    assert code == 0
    mid = doc["result"]["mid"]
    assert abs(mid - 0.6309297535714574) < 1e-12
    assert doc["result"]["width"] <= 1e-12


def test_dim_square_exponent_full(capsys):
    code, doc = run_json(["dim", "--family", "square-exponent", "--subset", "full"], capsys)
    assert code == 0
    assert 0.50 <= doc["result"]["mid"] <= 0.52


def test_dim_single_ratio_is_zero(capsys):
    code, doc = run_json(["dim", "--ratios", "0.5", "--tol", "1e-12"], capsys)
    assert code == 0
    assert doc["result"]["lo"] == 0.0 and doc["result"]["hi"] == 0.0
    assert doc["result"]["exact"] is True


def test_dim_by_word(capsys):
    code, doc = run_json(["dim", "--family", "square-exponent", "--word", "11"], capsys)
    assert code == 0
    assert abs(doc["result"]["mid"] - 0.4649584172162091) < 1e-9


def test_spectrum_csv_shape(capsys):
    code, out = run(["spectrum", "--family", "square-exponent", "--depth", "8",
                     "--base", "1,2", "--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["word", "lo", "hi", "mid", "width"]
    assert len(rows) == 64
    assert all(len(r[0]) == 8 and r[0].startswith("11") for r in rows)
    # decimal points, not commas, in the numbers
    assert all("." in r[3] for r in rows)
    config = json.loads(meta["config"])
    assert config["depth"] == 8


def test_classify_type_three(capsys):
    code, doc = run_json(["classify", "--family", "type-three", "--depth", "12"], capsys)
    assert code == 0
    assert doc["result"]["label"] == "Type III"


def test_construct_k_depth_four(capsys):
    code, out = run(["construct-k", "--depth", "4", "--format", "csv",
                     "--no-timestamp"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert len(rows) == 16
    assert rows[0][0] == "0000" and rows[-1][0] == "1111"
    assert rows[0][2] == ""  # f(0000) = 0 has no terms


def test_boxdim_cantor(capsys):
    code, doc = run_json(["boxdim", "--family", "cantor-pair", "--depth", "8"], capsys)
    assert code == 0
    assert abs(doc["slope"] - 0.6309297535714574) < 0.05


def test_gaps_output(capsys):
    code, doc = run_json(["gaps", "--family", "cantor-pair", "--depth", "7"], capsys)
    assert code == 0
    assert doc["result"]["max_ratio"] == pytest.approx(2.0, abs=1e-9)


def test_perturb_columns(capsys):
    code, out = run(["perturb", "--family", "square-exponent", "--subset", "1,2",
                     "--b-range", "4:7", "--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header[:2] == ["b", "ratio_b"]
    assert "log_ratio" in header and "log_increment" in header
    assert [r[0] for r in rows] == ["4", "5", "6", "7"]


def test_localdim_series_in_structured_output(capsys):
    code, doc = run_json(["localdim", "--family", "cantor-pair", "--depth", "7"], capsys)
    assert code == 0
    assert doc["n_points"] == 128
    assert len(doc["series"]) == 9


def test_localdim_csv_carries_the_series_as_a_json_line(capsys):
    # The table has no column for the nested series, so the metadata
    # line carries it, the same list the structured document holds.
    argv = ["localdim", "--family", "cantor-pair", "--depth", "7", "--no-timestamp"]
    _, doc = run_json(argv[:-1], capsys)
    code, out = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert json.loads(meta["series"]) == doc["series"]
    assert meta["n_points"] == "128" and len(rows) == 9


# --- fast kernels keep every byte ---------------------------------------------

METRIC_COMMANDS = [
    [cmd, "--family", "cantor-pair", "--depth", depth]
    for cmd in ("boxdim", "localdim", "gaps", "classify") for depth in ("9", "10", "13")
] + [
    ["classify", "--family", fam, "--depth", depth]
    for fam in ("geometric", "type-three") for depth in ("9", "10")
]


def _local_profile_without_reuse(points):
    """local_dimension_profile as it was before the series reused the
    scalar window: every series radius is profiled."""
    from dataclasses import replace

    from dimspec import metrics

    pts, centers = metrics._centers(points)
    out = []
    for x in centers:
        record, window, d, hits = metrics._center_scalar(pts, x)
        series = []
        for r in metrics._series_radii(d, hits):
            sel = window(r)
            prof = metrics._profile(sel, floor_rule="median")
            if prof is not None:
                series.append((r, len(sel), prof.slope))
        out.append(replace(record, series=tuple(series)))
    return metrics.LocalProfile(n_points=len(pts), centers=tuple(out))


def test_metric_documents_match_the_reference_kernels(monkeypatch, capsys):
    from dimspec import metrics

    fast = [run(argv + ["--no-timestamp"], capsys) for argv in METRIC_COMMANDS]

    # The glue: the set-and-sort distinct points, the list-built Cantor
    # cloud, binary lifting in the gap statistic's pair bounds and a
    # local profile that measures every series window.
    monkeypatch.setattr(metrics, "_distinct_sorted", oracles.ref_distinct_sorted)
    monkeypatch.setattr(cli, "cantor_truncation", oracles.ref_cantor_truncation)
    monkeypatch.setattr(metrics, "_left_pair_bounds", oracles.ref_left_pair_bounds)
    monkeypatch.setattr(cli, "local_dimension_profile", _local_profile_without_reuse)
    glue = [run(argv + ["--no-timestamp"], capsys) for argv in METRIC_COMMANDS]

    # The kernels, with the glue's references still in.
    def reference_gaps(points):
        best = oracles.ref_uniform_perfectness_gaps(points)
        return metrics.GapReport(*best)

    monkeypatch.setattr(metrics, "_covering_counts", lambda pts, scales, gaps: [
        oracles.ref_covering_count([float(p) for p in pts], e) for e in scales])
    monkeypatch.setattr(metrics, "_windows", lambda pts, x: lambda r: oracles.ref_window(pts, x, r))
    monkeypatch.setattr(metrics, "fit_reciprocal_band", oracles.ref_fit_reciprocal_band)
    monkeypatch.setattr(metrics, "uniform_perfectness_gaps", reference_gaps)
    monkeypatch.setattr(cli, "uniform_perfectness_gaps", reference_gaps)
    reference = [run(argv + ["--no-timestamp"], capsys) for argv in METRIC_COMMANDS]
    assert all(code == 0 for code, _ in fast)
    assert fast == glue == reference


@pytest.mark.parametrize("family, calls", [("cantor-pair", 99), ("geometric", 90)])
def test_the_local_profile_measures_each_window_once(family, calls, monkeypatch, cloud_cache):
    # The depth-13 Cantor cloud's scalar windows are half-sample windows
    # at d[4096], a dyadic series radius too: 108 profiles before the
    # series reused them.  No geometric scalar window is a series window.
    from dimspec import metrics

    points = (metrics.cantor_truncation(13) if family == "cantor-pair"
              else cloud_cache.cloud(family, 13).midpoints())
    profile = metrics._profile
    seen = []

    def counted(*args, **kwargs):
        seen.append(1)
        return profile(*args, **kwargs)

    monkeypatch.setattr(metrics, "_profile", counted)
    metrics.local_dimension_profile(points)
    assert len(seen) == calls


# --- the C-encoder renderer keeps every byte ----------------------------------

RENDERED_COMMANDS = (
    [["spectrum", "--family", "square-exponent", "--depth", str(d)] for d in range(6, 12)]
    + [["spectrum", "--family", "geometric", "--depth", "8"],
       ["spectrum", "--ratios", "0.3", "1/4", "0.2", "0.15", "0.1", "--depth", "5"]]
    + [[cmd, "--family", "cantor-pair", "--depth", "9"]
       for cmd in ("boxdim", "localdim", "gaps", "classify")]
    + [["dim", "--family", "square-exponent", "--subset", "1,2"],
       ["dim", "--family", "square-exponent", "--subset", "1,2", "--tol", "1e-30"],
       ["perturb", "--family", "square-exponent", "--subset", "1,2", "--b-range", "3:8"],
       ["construct-k", "--depth", "5"],
       ["verify", "--criteria", "1"]])


def test_documents_match_the_reference_renderer(monkeypatch, capsys):
    # Every structured document, the spectrum rows included, is the text
    # json's own indented encoder writes, byte for byte.
    fast = [run(argv + ["--no-timestamp"], capsys) for argv in RENDERED_COMMANDS]
    monkeypatch.setattr(cli, "_render_structured", oracles.ref_render)
    reference = [run(argv + ["--no-timestamp"], capsys) for argv in RENDERED_COMMANDS]
    assert all(code == 0 for code, _ in fast)
    assert '"tier": "mpmath"' in fast[5][1] and '"tier": "double"' in fast[0][1]
    assert fast == reference


# Text that json escapes or that the renderer splits and joins at.
JSON_TEXT = st.lists(st.sampled_from(["\x00", "\x00[", "]\x00[", ",", "[", "]", '"', "\\", "\n",
                                      " ", "a", "é", "漢", "🙂", "\ud800"]) | st.characters(),
                     max_size=6).map("".join)
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308])
                | JSON_TEXT)
# lists of scalar lists of unequal lengths, and of equal ones
SCALAR_ROWS = st.lists(st.lists(JSON_SCALARS, max_size=5), max_size=6) | st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(JSON_SCALARS, min_size=n, max_size=n), min_size=1,
                       max_size=6))
UNENCODABLE = st.sampled_from([{1, 2}, b"x", 1j, object()])
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS | SCALAR_ROWS | st.lists(UNENCODABLE | JSON_SCALARS, max_size=3),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(JSON_TEXT, children, max_size=4)),
    max_leaves=24)


def _rendered(render, doc):
    try:
        return render(doc)
    except TypeError as exc:
        return TypeError, str(exc)


@settings(max_examples=400)
@given(JSON_DOCUMENTS)
@example({"rows": {"data": [["110", 0.5, math.nan], ["111", -0.0, 1e308]], "header": ["w", "a"]}})
@example([[], [1, "]\x00["], [], ["\x00"]])
@example({"a": [{}, [], [[]], ()], "b": (1, (2, [3])), "c": 2**70})
@example({"a": [[1, {1, 2}]]})
def test_the_renderer_writes_what_json_writes(doc):
    # _render_structured equals json.dumps(indent=2, sort_keys=True) plus
    # a newline, and raises json's TypeError where json cannot encode.
    assert _rendered(cli._render_structured, doc) == _rendered(oracles.ref_render, doc)


@pytest.mark.parametrize("keys", [{1: "a", 2.5: "b", True: "c", None: "d"}, {"a": 1, 2: 3},
                                  {(1,): 2}, {"a": 1, b"b": 2}])
def test_the_renderer_writes_keys_as_json_does(keys):
    # json writes int, float, bool and None keys as strings, refuses
    # other keys, and cannot sort keys of mixed types.
    assert _rendered(cli._render_structured, keys) == _rendered(oracles.ref_render, keys)


# --- error handling -----------------------------------------------------------

def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of main(argv), argparse's exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_every_call_as_a_fresh_one_would(monkeypatch, capsys):
    # main builds its parser once per process.  A run of commands through
    # that one parser, a usage error and a ConfigError among them, prints
    # the same bytes and exits with the same codes as a fresh parser per
    # call, and --help is unchanged.
    argvs = [["spectrum", "--family", "geometric", "--depth", "6", "--no-timestamp"],
             ["classify", "--family", "type-three", "--depth", "8", "--no-timestamp"],
             ["spectrum", "--family", "geometric", "--depth", "six"],
             ["spectrum", "--depth", "6", "--no-timestamp"],
             ["--help"], ["classify", "--help"]]
    shared = [_outcome(argv, capsys) for argv in argvs]
    assert cli._build_parser() is cli._build_parser()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert shared == [_outcome(argv, capsys) for argv in argvs]
    assert [code for code, _, _ in shared] == [0, 0, 2, 2, 0, 0]
    assert "invalid int value: 'six'" in shared[2][2]
    assert '"ConfigError"' in shared[3][1]


def test_config_error_exit_code(capsys):
    code, out = run(["dim", "--family", "square-exponent", "--subset", "1;2"], capsys)
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "ConfigError"


def test_family_and_ratios_conflict(capsys):
    code, out = run(["dim", "--family", "geometric", "--ratios", "0.5"], capsys)
    assert code == 2


def test_missing_family(capsys):
    code, out = run(["dim", "--subset", "1,2"], capsys)
    assert code == 2
    _config_error(["boxdim", "--depth", "5"], capsys, "a named --family is required")


@pytest.mark.parametrize("argv, message", [
    (["perturb", "--family", "square-exponent", "--b-range", "5:3"], "lo exceeds hi"),
    (["perturb", "--family", "square-exponent", "--b-range", "5"], "expected lo:hi"),
    (["verify", "--criteria", "x"], "bad --criteria 'x'"),
    (["dim", "--family", "geometric", "--workers", "0"], "--workers must be at least 1"),
])
def test_malformed_flags_are_config_errors(capsys, argv, message):
    _config_error(argv, capsys, message)


def _config_error(argv, capsys, message):
    code, out = run(argv, capsys)
    assert code == 2
    record = json.loads(out)
    assert record["error"]["type"] == "ConfigError"
    assert message in record["error"]["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12", "-1", "0"])
def test_a_tolerance_that_is_not_finite_and_positive_is_a_config_error(capsys, tol):
    # The message names the tol given, not one derived from it.
    message = f"tolerance must be positive and finite, got {float(tol)}"
    _config_error(["dim", "--family", "square-exponent", "--subset", "1,2,3", f"--tol={tol}"],
                  capsys, message)
    _config_error(["spectrum", "--family", "square-exponent", "--depth", "5", f"--tol={tol}"],
                  capsys, message)


def test_dim_word_is_a_binary_word_not_a_keyword(capsys):
    # --word full used to solve the full family
    _config_error(["dim", "--family", "square-exponent", "--word", "full"],
                  capsys, "word may contain only '0' and '1'")


def test_spectrum_base_full_is_a_config_error_for_every_family(capsys):
    for family in (["--family", "square-exponent"], ["--ratios", "1/2", "1/3"]):
        _config_error(["spectrum", *family, "--base", "full", "--depth", "2"],
                      capsys, "at least one symbol explicitly")


def test_dim_takes_either_a_subset_or_a_word(capsys):
    # --subset 1,2 used to be dropped silently, solving {1, 2, 3, 4}
    _config_error(["dim", "--family", "square-exponent", "--subset", "1,2", "--word", "1111"],
                  capsys, "give either --subset or --word")


def test_numeric_error_exit_code(capsys):
    code, out = run(["dim", "--family", "cantor-pair", "--tol", "1e-40",
                     "--precision-bits", "64"], capsys)
    assert code == 3
    record = json.loads(out)
    assert record["error"]["type"] == "ToleranceNotReachable"


def test_perturb_with_an_underflowing_scale_is_a_numeric_error(capsys):
    code, out = run(["perturb", "--family", "geometric", "--subset", "1,2",
                     "--b-range", "2000:2000"], capsys)
    assert code == 3
    assert json.loads(out)["error"]["type"] == "InsufficientPrecision"


def test_perturb_over_one_symbol_is_a_config_error(capsys):
    # used to say "all perturbing ratios equal", with exit code 3
    code, out = run(["perturb", "--ratios", "1/2", "1/3", "1/5", "--subset", "1,2",
                     "--b-range", "3:3"], capsys)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ConfigError"
    assert "two distinct perturbing ratios" in error["message"]


def test_perturb_with_underflowing_ratios_is_a_numeric_error(capsys):
    # Both increments certify, but ratios 1e-400 and 1e-401 underflow to
    # 0 in doubles; the fit used to take math.log(0.0), a bare ValueError
    # with exit 1 and no error record.
    code, out = run(["perturb", "--ratios", "1e-300", "1e-300", "1e-400", "1e-401",
                     "--subset", "1,2", "--b-range", "3:4"], capsys)
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "InsufficientPrecision"
    assert "ratio(3) underflows" in error["message"]


def test_point_commands_reject_raw_ratios(capsys):
    code, out = run(["boxdim", "--ratios", "0.5", "0.25", "--depth", "6"], capsys)
    assert code == 2


# --- reproducibility -------------------------------------------------------------

def test_config_echo_roundtrip(capsys):
    argv = ["dim", "--family", "square-exponent", "--subset", "1,3", "--tol", "1e-11",
            "--no-timestamp"]
    code, out = run(argv, capsys)
    assert code == 0
    doc = json.loads(out)
    again = cli.run_from_config(doc["config"])
    assert again == out


def test_config_echo_roundtrip_csv(capsys):
    argv = ["spectrum", "--family", "square-exponent", "--depth", "5", "--base", "1,2",
            "--format", "csv", "--no-timestamp"]
    code, out = run(argv, capsys)
    assert code == 0
    meta, _, _ = parse_csv(out)
    config = json.loads(meta["config"])
    assert cli.run_from_config(config) == out


ROUNDTRIPS = {
    "dim-ratios": "dim --ratios 1/2 1/4 --precision-bits 80 --tol 1e-15",
    "dim-word-csv": "dim --family geometric --word 101 --format csv",
    "spectrum": "spectrum --family type-three --depth 5 --tol 1e-9",
    "boxdim-csv": "boxdim --family cantor-pair --depth 8 --scales 2:6 --format csv",
    "localdim": "localdim --family cantor-pair --depth 7",
    "gaps-csv": "gaps --family cantor-pair --depth 7 --format csv",
    "classify": "classify --family geometric --depth 8",
    "perturb-csv": "perturb --family square-exponent --subset 1,2 --b-range 3:5 --tol 1e-8"
                   " --format csv",
    "construct-k": "construct-k --depth 3",
    "verify": "verify --criteria 1",
}


@pytest.mark.parametrize("argv", ROUNDTRIPS.values(), ids=ROUNDTRIPS.keys())
def test_every_command_roundtrips_through_its_config_echo(argv, capsys):
    code, out = run(argv.split() + ["--no-timestamp"], capsys)
    assert code == 0
    if argv.endswith("--format csv"):
        config = json.loads(parse_csv(out)[0]["config"])
    else:
        config = json.loads(out)["config"]
    assert cli.run_from_config(config) == out


def test_workers_flag_does_not_change_bytes(capsys):
    base = ["spectrum", "--family", "square-exponent", "--depth", "6", "--base", "1,2",
            "--format", "csv", "--no-timestamp"]
    _, one = run(base + ["--workers", "1"], capsys)
    _, four = run(base + ["--workers", "4"], capsys)
    assert one == four


def test_timestamp_present_by_default(capsys):
    code, out = run(["dim", "--ratios", "0.5", "0.25"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert "generated_at" in doc
    code, out = run(["dim", "--ratios", "0.5", "0.25", "--no-timestamp"], capsys)
    assert "generated_at" not in json.loads(out)


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "result.json"
    code = cli.main(["dim", "--ratios", "1/3", "1/3", "--no-timestamp",
                     "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert abs(doc["result"]["mid"] - 0.6309297535714574) < 1e-9


@pytest.mark.parametrize("where", ["missing/result.json", "."])
def test_an_out_path_that_cannot_be_written_is_a_config_error(tmp_path, capsys, where):
    # A missing directory or a directory used to end in a bare
    # FileNotFoundError or IsADirectoryError traceback with exit 1.
    _config_error(["dim", "--ratios", "1/3", "1/3", "--no-timestamp",
                   "--out", str(tmp_path / where)], capsys, "cannot write --out")


# --- verify ------------------------------------------------------------------------

def test_verify_single_green_criterion(capsys):
    code, out = run(["verify", "--criteria", "1", "--no-timestamp"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == 1 and doc["total"] == 1
    assert doc["results"][0]["passed"] is True


def test_verify_reports_failures_with_nonzero_exit(capsys):
    # criterion 3 measures a 3.4% deviation against a 3% gate; the
    # suite reports that honestly instead of hiding it
    code, out = run(["verify", "--criteria", "3", "--no-timestamp"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["results"][0]["passed"] is False
    assert "slope" in doc["results"][0]["details"]


class _Clock:
    """Stands in for the time module: perf_counter advances by a fixed
    step on every call."""

    def __init__(self, step):
        self.now, self.step = 0.0, step

    def perf_counter(self):
        self.now += self.step
        return self.now


def test_verify_without_timestamp_is_byte_stable(monkeypatch, capsys):
    # The same criteria on clocks of different speeds: with
    # --no-timestamp neither the document nor the stderr lines may
    # carry an elapsed time.
    runs = []
    for step in (0.01, 0.37):
        monkeypatch.setattr(acceptance, "time", _Clock(step))
        code = cli.main(["verify", "--criteria", "3,5", "--no-timestamp"])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 1  # criterion 3 fails by design


def test_verify_csv_is_the_result_lines_and_a_total(capsys):
    code, out = run(["verify", "--criteria", "1", "--format", "csv", "--no-timestamp"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("criterion 1 PASS") and lines[1] == "passed 1/1"


def test_verify_rejects_unknown_criterion(capsys):
    code, out = run(["verify", "--criteria", "99"], capsys)
    assert code == 2
