"""The shared byte-identity gates: every output recorded in tests/golden/
(see golden.py) comes out byte for byte the same."""

import json

import pytest

import ncbench.cli
from conftest import shared_study
import golden


def first_difference(expected, actual, path="$"):
    """The JSON path of the first value that differs, or None."""
    if type(expected) is not type(actual):
        return path
    if isinstance(expected, dict):
        for key in sorted(expected.keys() | actual.keys()):
            if key not in expected or key not in actual:
                return f"{path}.{key}"
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list):
        for k, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{k}]")
            if found:
                return found
        return None if len(expected) == len(actual) else f"{path} (length)"
    return None if expected == actual else path


def assert_same_json(recorded, output, name):
    if output != recorded:
        where = first_difference(json.loads(recorded), json.loads(output)) or "$ (formatting)"
        pytest.fail(f"{name}: output differs from the recording at {where}")


def assert_same_digest(recorded, digest, what):
    """Fail naming the first line whose digest differs from the recording."""
    if digest != recorded:
        rows = zip(recorded["rows"], digest["rows"])
        row = next((k for k, (e, a) in enumerate(rows) if e != a), None)
        if row is None:
            row = min(len(recorded["rows"]), len(digest["rows"]))
        pytest.fail(f"{what} differs from the recording at line {row + 1}")


@pytest.mark.parametrize("name", sorted(golden.COMPARES))
def test_compare_output_is_recorded(name, tmp_path):
    output, stdout = golden.compare_output(name, tmp_path)
    assert_same_json(golden.compare_path(name).read_bytes(), output, name)
    assert stdout == golden.stdout_path(name).read_bytes(), f"{name}: stdout differs"


@pytest.mark.parametrize("name", sorted(golden.EXPECTS))
def test_expect_output_is_recorded(name, tmp_path):
    output, stdout = golden.expect_output(name, tmp_path)
    path = golden.expect_path(name)
    assert_same_json(path.read_bytes(), output, name)
    assert stdout == path.with_suffix(".txt").read_bytes(), f"{name}: stdout differs"


def test_fit_test_stdout_is_recorded():
    assert golden.fit_test_stdout() == golden.fit_test_path().read_bytes()


@pytest.mark.parametrize("name", sorted(golden.STUDIES))
def test_study_outputs_are_recorded(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ncbench.cli, "run_study", shared_study)
    summary, digest = golden.study_outputs(name, tmp_path)
    assert_same_json(golden.summary_path(name).read_bytes(), summary, name)
    recorded = json.loads(golden.digest_path(name).read_text())
    assert_same_digest(recorded, digest, f"{name}: replications.csv")


def test_nc_layer_is_recorded():
    recorded = json.loads(golden.nc_layer_path().read_text())
    assert_same_digest(recorded, golden.layer_digest(golden.nc_layer_records()), "negative-control corpus")


def test_pc_layer_is_recorded():
    recorded = json.loads(golden.pc_layer_path().read_text())
    assert_same_digest(recorded, golden.layer_digest(golden.pc_layer_records()), "PC corpus")


def test_first_difference_names_the_path():
    recorded = {"metrics": {"shd": {"p": 0.01, "nc_ci": [1, 2]}}, "d": 11}
    moved = {"metrics": {"shd": {"p": 0.01, "nc_ci": [1, 3]}}, "d": 11}
    assert first_difference(recorded, moved) == "$.metrics.shd.nc_ci[1]"
    assert first_difference(recorded, {**recorded, "d": 11.0}) == "$.d"
    assert first_difference([1, 2], [1, 2, 3]) == "$ (length)"
    assert first_difference(recorded, json.loads(json.dumps(recorded))) is None
